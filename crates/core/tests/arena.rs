//! The engine's series arena against a `HashMap` model.
//!
//! Random sequences of insert / remove / re-insert / duplicate-id /
//! wrong-length / non-finite operations run against a [`DtwIndexEngine`] and
//! a plain `HashMap<ItemId, Vec<f64>>`. After every operation the two must
//! agree on `len`, on `get` for every id of the universe, and on the outcome
//! of the call itself (a failed call reports its error and leaves the engine
//! as it was); at intervals they must also agree on *answers*: both query
//! shapes against a brute-force `ldtw_distance` sweep of the model. Removal moves the arena's last slot into the hole, so the
//! sequences are drawn from a small id universe — holes open at the front,
//! in the middle and at the end, the engine empties and refills — and a
//! clone taken mid-sequence must keep answering for the state it was
//! cloned in.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use hum_core::dtw::ldtw_distance;
use hum_core::engine::{DtwIndexEngine, EngineError, QueryRequest};
use hum_core::transform::paa::NewPaa;
use hum_index::{ItemId, LinearScan};
use proptest::prelude::*;

const LEN: usize = 16;
const DIMS: usize = 4;
const BAND: usize = 2;
const UNIVERSE: u64 = 24;

type Model = HashMap<ItemId, Vec<f64>>;

fn engine() -> DtwIndexEngine {
    DtwIndexEngine::new(NewPaa::new(LEN, DIMS), LinearScan::with_page_size(DIMS, 256))
}

/// A deterministic series for `(id, version)`: re-inserting an id stores
/// different samples than the ones removed.
fn series_for(id: ItemId, version: u64) -> Vec<f64> {
    let mut state = (id * 1000 + version).wrapping_mul(6364136223846793005) | 1;
    (0..LEN)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
        })
        .collect()
}

/// `(id, distance)` by brute force over the model, sorted by
/// `(distance, id)`.
fn brute_force(model: &Model, query: &[f64]) -> Vec<(ItemId, f64)> {
    let mut all: Vec<(ItemId, f64)> =
        model.iter().map(|(&id, s)| (id, ldtw_distance(query, s, BAND))).collect();
    all.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then_with(|| a.0.cmp(&b.0)));
    all
}

fn bits(matches: &[(ItemId, f64)]) -> Vec<(ItemId, u64)> {
    matches.iter().map(|&(id, d)| (id, d.to_bits())).collect()
}

/// `len`, `get` over the whole universe, and every query path against the
/// brute-force sweep of the model.
fn assert_agrees(engine: &DtwIndexEngine, model: &Model, query: &[f64], when: &str) {
    assert_eq!(engine.len(), model.len(), "len {when}");
    assert_eq!(engine.is_empty(), model.is_empty(), "is_empty {when}");
    for id in (0..UNIVERSE).chain(model.keys().copied()) {
        assert_eq!(engine.get(id), model.get(&id).map(Vec::as_slice), "get({id}) {when}");
    }
    let truth = brute_force(model, query);
    let k = 5.min(truth.len());
    let radius = truth.get(k.saturating_sub(1)).map_or(1.0, |m| m.1);
    let in_range: Vec<(ItemId, f64)> = truth.iter().copied().filter(|m| m.1 <= radius).collect();
    let knn = QueryRequest::knn(5).with_series(query).with_band(BAND);
    let got = engine.try_query(&knn).unwrap().result;
    assert_eq!(bits(&got.matches), bits(&truth[..k]), "knn {when}");
    let range = QueryRequest::range(radius).with_series(query).with_band(BAND);
    let got = engine.try_query(&range).unwrap().result;
    assert_eq!(bits(&got.matches), bits(&in_range), "range {when}");
}

#[derive(Debug, Clone)]
enum Op {
    /// Insert (a duplicate when the id is stored).
    Insert(ItemId),
    Remove(ItemId),
    WrongLength(ItemId),
    NonFinite(ItemId, usize),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let id = 0..UNIVERSE;
    proptest::collection::vec(
        prop_oneof![
            id.clone().prop_map(Op::Insert),
            id.clone().prop_map(Op::Insert),
            id.clone().prop_map(Op::Remove),
            id.clone().prop_map(Op::WrongLength),
            (id, 0..LEN).prop_map(|(id, at)| Op::NonFinite(id, at)),
        ],
        1..120,
    )
}

/// Applies `op` to both sides, checking the call's own outcome.
fn apply(engine: &mut DtwIndexEngine, model: &mut Model, op: &Op, version: u64) {
    match *op {
        Op::Insert(id) => {
            let series = series_for(id, version);
            let got = engine.try_insert(id, series.clone());
            match model.entry(id) {
                Entry::Occupied(_) => assert_eq!(got, Err(EngineError::DuplicateId(id))),
                Entry::Vacant(slot) => {
                    assert_eq!(got, Ok(()));
                    slot.insert(series);
                }
            }
        }
        Op::Remove(id) => assert_eq!(engine.remove(id), model.remove(&id).is_some()),
        Op::WrongLength(id) => {
            let got = engine.try_insert(id, vec![0.5; LEN + 1]);
            assert!(matches!(got, Err(EngineError::LengthMismatch { .. })), "{got:?}");
        }
        Op::NonFinite(id, at) => {
            let mut series = series_for(id, version);
            series[at] = if version.is_multiple_of(2) { f64::NAN } else { f64::INFINITY };
            let got = engine.try_insert(id, series);
            assert!(
                matches!(got, Err(EngineError::NonFiniteSample { index, .. }) if index == at),
                "{got:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_agrees_with_a_hashmap_model(ops in ops()) {
        let mut engine = engine();
        let mut model = Model::new();
        let query = series_for(999, 0);
        let mut snapshot: Option<(DtwIndexEngine, Model)> = None;
        for (step, op) in ops.iter().enumerate() {
            apply(&mut engine, &mut model, op, step as u64);
            // Cheap agreement after every operation, answers every eighth.
            prop_assert_eq!(engine.len(), model.len(), "after step {} ({:?})", step, op);
            for id in 0..UNIVERSE {
                prop_assert_eq!(engine.get(id), model.get(&id).map(Vec::as_slice));
            }
            if step % 8 == 7 {
                assert_agrees(&engine, &model, &query, &format!("after step {step} ({op:?})"));
            }
            if step == ops.len() / 2 {
                snapshot = Some((engine.clone(), model.clone()));
            }
        }
        assert_agrees(&engine, &model, &query, "at the end");
        // The clone never saw the second half of the sequence.
        if let Some((cloned, cloned_model)) = snapshot {
            assert_agrees(&cloned, &cloned_model, &query, "in the mid-sequence clone");
        }
    }
}

#[test]
fn removing_the_only_the_last_and_a_middle_slot() {
    let mut engine = engine();
    let mut model = Model::new();
    let query = series_for(999, 1);
    let step = |engine: &mut DtwIndexEngine, model: &mut Model, op: Op| {
        apply(engine, model, &op, 7);
        assert_agrees(engine, model, &query, &format!("after {op:?}"));
    };
    // The only slot: the engine empties and refills.
    step(&mut engine, &mut model, Op::Insert(3));
    step(&mut engine, &mut model, Op::Remove(3));
    step(&mut engine, &mut model, Op::Remove(3));
    // Two and a half storage blocks, so holes and the slot that fills them
    // can lie in different blocks.
    for id in 0..UNIVERSE {
        step(&mut engine, &mut model, Op::Insert(id));
    }
    for id in UNIVERSE..160 {
        apply(&mut engine, &mut model, &Op::Insert(id), 7);
    }
    // The last slot, then a middle slot (filled from the end), then the first.
    step(&mut engine, &mut model, Op::Remove(159));
    step(&mut engine, &mut model, Op::Remove(11));
    step(&mut engine, &mut model, Op::Remove(0));
    // The removed ids come back with other samples, in other slots.
    step(&mut engine, &mut model, Op::Insert(11));
    step(&mut engine, &mut model, Op::Insert(11));
    step(&mut engine, &mut model, Op::Insert(0));
    // Failed calls change nothing.
    step(&mut engine, &mut model, Op::WrongLength(200));
    step(&mut engine, &mut model, Op::NonFinite(200, 5));
    for id in 20..160 {
        apply(&mut engine, &mut model, &Op::Remove(id), 7);
    }
    assert_agrees(&engine, &model, &query, "after draining to one block");
}
