//! The benchmark's vocabulary: workload names and every metric the harness
//! prints. `BENCHMARK.json` at the repo root lists the same names with
//! their bounds; a self-test keeps the two in step.

use serde_json::Value;

/// The four workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["hum_10k", "hum_30k", "serve_knn", "serve_mixed"];

/// End-to-end metrics `(name, unit)`: what a user of the system sees.
/// Every workload asks hum k-NN and ε-range queries, so every workload
/// reports every one of these.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("knn_p50_ms", "ms"),
    ("knn_p95_ms", "ms"),
    ("knn_qps", "1/s"),
    ("range_p50_ms", "ms"),
    ("range_p95_ms", "ms"),
    ("top10_hit_share", "ratio"),
    ("resident_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, named `<layer>.<metric>`; traced runs
/// only.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("normal.apply_us", "us"),
    ("session.open_append_us", "us"),
    ("envelope.compute_us", "us"),
    ("transform.project_envelope_us", "us"),
    ("transform.project_us", "us"),
    ("index.knn_probe_us", "us"),
    ("index.range_us", "us"),
    ("index.pages_per_query", "count"),
    ("index.candidates_per_query", "count"),
    ("index.candidate_ratio", "ratio"),
    ("index.useful_share", "ratio"),
    ("index.build_s", "s"),
    ("kernel.prefilter_ns_per_cand", "ns"),
    ("kernel.env_lb_ns_per_cand", "ns"),
    ("kernel.prefilter_pruned_share", "ratio"),
    ("engine.fetch_ns_per_cand", "ns"),
    ("engine.lb_pruned_per_query", "count"),
    ("engine.lb_improved_pruned_per_query", "count"),
    ("engine.lb_improved_ns_per_call", "ns"),
    ("engine.exact_per_query", "count"),
    ("engine.early_abandoned_per_query", "count"),
    ("engine.dp_cells_per_query", "count"),
    ("engine.dtw_us_per_call", "us"),
    ("engine.verified_useful_share", "ratio"),
    ("engine.ns_per_candidate", "ns"),
    ("engine.share_index", "ratio"),
    ("engine.share_fetch", "ratio"),
    ("engine.share_prefilter", "ratio"),
    ("engine.share_env_lb", "ratio"),
    ("engine.share_lb_improved", "ratio"),
    ("engine.share_dtw", "ratio"),
    ("engine.share_unattributed", "ratio"),
    ("engine.replay_mismatches", "count"),
    ("segment.units_end", "count"),
    ("store.preload_insert_per_s", "1/s"),
    ("store.flush_ms", "ms"),
    ("store.compact_ms", "ms"),
    ("store.open_s", "s"),
    ("store.flushes", "count"),
    ("store.compactions", "count"),
    ("store.bytes_written_per_insert", "B"),
    ("store.write_amp", "ratio"),
    ("store.disk_bytes_per_melody", "B"),
    ("store.segments_end", "count"),
    ("store.acked_not_durable", "count"),
    ("protocol.encode_request_us", "us"),
    ("protocol.decode_request_us", "us"),
    ("protocol.encode_response_us", "us"),
    ("protocol.decode_response_us", "us"),
    ("protocol.frame_roundtrip_us", "us"),
    ("protocol.request_bytes", "B"),
    ("protocol.response_bytes", "B"),
    ("queue.push_pop_ns", "ns"),
    ("queue.wait_mean_us", "us"),
    ("queue.high_water", "count"),
    ("server.ping_p50_ms", "ms"),
    ("server.request_mean_ms", "ms"),
    ("server.transport_ms", "ms"),
    ("server.bytes_in_per_req", "B"),
    ("server.bytes_out_per_req", "B"),
    ("server.rejected_overload", "count"),
    ("server.deadline_exceeded", "count"),
    ("server.protocol_errors", "count"),
    ("server.maintenance_ticks", "count"),
    ("server.insert_p50_ms", "ms"),
    ("server.insert_p95_ms", "ms"),
    ("server.stall_ms_max", "ms"),
    ("server.over_limit_share", "ratio"),
    ("loadgen.late_ms_p99", "ms"),
    ("loadgen.trace_overhead_share", "ratio"),
    ("loadgen.samples", "count"),
];

/// Looks a field up in a JSON object (first match, as the workspace's
/// vendored `serde_json` keeps objects as ordered pairs).
pub fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A string field, or `""`.
pub fn str_field<'a>(value: &'a Value, key: &str) -> &'a str {
    match field(value, key) {
        Some(Value::String(s)) => s,
        _ => "",
    }
}

/// A numeric field.
pub fn num_field(value: &Value, key: &str) -> Option<f64> {
    match field(value, key) {
        Some(Value::Number(n)) => Some(*n),
        _ => None,
    }
}

/// An array field, or an empty slice.
pub fn array_field<'a>(value: &'a Value, key: &str) -> &'a [Value] {
    match field(value, key) {
        Some(Value::Array(items)) => items,
        _ => &[],
    }
}

/// One end-to-end metric's entry in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// Reads the end-to-end bounds out of a parsed `BENCHMARK.json`.
pub fn bounds(benchmark_json: &Value) -> Vec<Bound> {
    array_field(benchmark_json, "end_to_end")
        .iter()
        .map(|m| Bound {
            name: str_field(m, "name").to_string(),
            lower_is_better: str_field(m, "better") == "lower",
            bound: num_field(m, "bound").unwrap_or(0.0),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Every name the harness prints appears in `BENCHMARK.json` with the
    /// same unit, and the other way round.
    #[test]
    fn names_and_units_match_benchmark_json() {
        let json = benchmark_json();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: BTreeSet<(String, String)> = array_field(&json, key)
                .iter()
                .map(|m| (str_field(m, "name").to_string(), str_field(m, "unit").to_string()))
                .collect();
            let printed: BTreeSet<(String, String)> =
                table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(listed, printed, "{key} differs between BENCHMARK.json and spec.rs");
            assert_eq!(table.len(), printed.len(), "duplicate name in {key}");
        }
        let workloads: Vec<&str> =
            array_field(&json, "workloads").iter().map(|w| str_field(w, "name")).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn names_are_well_formed_and_unique_across_the_file() {
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(seen.insert(*name), "name {name:?} used twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit:?}"
            );
        }
        for name in WORKLOADS {
            assert!(valid_name(name) && seen.insert(name), "bad workload name {name:?}");
        }
    }

    #[test]
    fn benchmark_json_meets_the_contract_limits() {
        let json = benchmark_json();
        let Value::Object(fields) = &json else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let all = bounds(&json);
        assert!(all.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25), "{all:?}");
        let setup = all.iter().find(|b| b.name == "setup_s").expect("setup_s listed");
        assert!(setup.lower_is_better);
        assert!(all.iter().all(|b| b.bound <= setup.bound), "setup_s has the largest bound");
        for w in array_field(&json, "workloads") {
            assert!(str_field(w, "why").len() <= 200, "why too long: {}", str_field(w, "why"));
        }
        let seconds = num_field(&json, "run_seconds").expect("run_seconds");
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }
}
