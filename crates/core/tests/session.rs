//! The linchpin invariant of [`QuerySession`]: a request built after any
//! sequence of appends is **bit-identical** — matches, counters, and trace
//! — to a one-shot query over the same prefix, for range and k-NN alike.

use std::time::Duration;

use hum_core::engine::{DtwIndexEngine, EngineError, QueryBudget, QueryRequest, QueryScratch};
use hum_core::normal::NormalForm;
use hum_core::session::QuerySession;
use hum_core::transform::paa::NewPaa;
use hum_index::{ItemId, LinearScan};

const LEN: usize = 64;
const DIMS: usize = 8;
const BAND: usize = 4;

/// Deterministic raw "hums": random-walk pitch contours of varying length,
/// the shape the session ingests before normalization.
fn raw_hums(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
    let mut next = move || {
        state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    (0..n)
        .map(|i| {
            let len = 48 + (i * 13) % 90;
            let mut pitch = 60.0;
            (0..len)
                .map(|_| {
                    pitch += next() * 2.0;
                    pitch
                })
                .collect()
        })
        .collect()
}

fn engine(corpus: &[Vec<f64>], normal: &NormalForm) -> DtwIndexEngine {
    let mut engine = DtwIndexEngine::new(NewPaa::new(LEN, DIMS), LinearScan::new(DIMS));
    for (i, hum) in corpus.iter().enumerate() {
        engine.try_insert(i as ItemId, normal.apply(hum)).expect("insert normal form");
    }
    engine
}

/// A refinement: the session's request over everything appended so far,
/// executed like any other query.
fn refine(
    session: &QuerySession,
    engine: &DtwIndexEngine,
    budget: QueryBudget,
    scratch: &mut QueryScratch,
) -> Result<hum_core::engine::QueryOutcome, EngineError> {
    engine.try_query_with(&session.to_request(budget)?, scratch)
}

/// The one-shot path a non-streaming caller takes: normalize the whole
/// prefix, build a request, query.
fn one_shot(
    engine: &DtwIndexEngine,
    normal: &NormalForm,
    template: &QueryRequest,
    prefix: &[f64],
) -> Result<hum_core::engine::QueryOutcome, EngineError> {
    let request =
        template.clone().with_series(normal.apply(prefix)).with_budget(QueryBudget::unlimited());
    engine.try_query(&request)
}

/// The linchpin: stream a hum in uneven chunks; after every append the
/// session's refinement equals the one-shot answer over the same prefix —
/// whole [`QueryOutcome`]s compared (matches AND counters AND trace), for
/// k-NN and range.
#[test]
fn refine_is_bit_identical_to_one_shot_over_every_prefix() {
    let corpus = raw_hums(40, 7);
    let query_hum = raw_hums(41, 99).pop().expect("one hum");
    let normal = NormalForm::with_length(LEN);
    let templates = [
        QueryRequest::knn(5).with_band(BAND).with_trace(true),
        QueryRequest::range(2.5).with_band(BAND).with_trace(true),
    ];
    let engine = engine(&corpus, &normal);
    for template in &templates {
        let mut session = QuerySession::new(template.clone(), normal);
        let mut scratch = QueryScratch::new();
        let mut consumed = 0usize;
        // Uneven chunk sizes exercise append batching; every checkpoint
        // must agree with the one-shot prefix query.
        for chunk in [3usize, 1, 7, 11, 2, 19, 30].iter().cycle() {
            if consumed >= query_hum.len() {
                break;
            }
            let end = (consumed + chunk).min(query_hum.len());
            session.append(&query_hum[consumed..end]).expect("finite frames");
            consumed = end;
            let refined =
                refine(&session, &engine, QueryBudget::unlimited(), &mut scratch).expect("refine");
            let reference =
                one_shot(&engine, &normal, template, &query_hum[..consumed]).expect("one-shot");
            assert_eq!(refined, reference, "refine != one-shot at prefix {consumed}");
        }
        assert_eq!(consumed, query_hum.len());
    }
}

/// Refining an empty session is a typed error, not a panic or an empty
/// answer; the session stays usable afterwards.
#[test]
fn refine_on_empty_session_is_a_typed_error() {
    let corpus = raw_hums(10, 3);
    let normal = NormalForm::with_length(LEN);
    let engine = engine(&corpus, &normal);
    let mut session = QuerySession::new(QueryRequest::knn(3).with_band(BAND), normal);
    let mut scratch = QueryScratch::new();
    assert_eq!(
        refine(&session, &engine, QueryBudget::unlimited(), &mut scratch).unwrap_err(),
        EngineError::EmptyQuery
    );
    session.append(&corpus[0]).expect("finite frames");
    assert!(refine(&session, &engine, QueryBudget::unlimited(), &mut scratch).is_ok());
}

/// An already-expired budget aborts the refinement with the partial work
/// counters — the session itself is untouched and refines fine afterwards.
#[test]
fn expired_budget_mid_refine_returns_partial_stats() {
    let corpus = raw_hums(30, 5);
    let normal = NormalForm::with_length(LEN);
    let engine = engine(&corpus, &normal);
    let mut session = QuerySession::new(QueryRequest::knn(4).with_band(BAND), normal);
    let mut scratch = QueryScratch::new();
    session.append(&corpus[7]).expect("finite frames");
    match refine(&session, &engine, QueryBudget::within(Duration::ZERO), &mut scratch) {
        Err(EngineError::DeadlineExceeded { stats }) => {
            // Partial counters report work-so-far; matches are never
            // partially reported.
            assert_eq!(stats.matches, 0);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let ok = refine(&session, &engine, QueryBudget::unlimited(), &mut scratch).expect("refine");
    assert_eq!(ok.result.matches.len(), 4);
}
