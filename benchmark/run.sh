#!/usr/bin/env bash
# Builds the benchmark (its own workspace, offline) and runs it.
#
#   benchmark/run.sh --workload <hum_10k|hum_30k|serve_knn|serve_mixed|all> \
#                    --seed <u64> --seconds <n> --trace <0|1> [--out <file>]
#   benchmark/run.sh compare <a.json> <b.json>
#   benchmark/run.sh spread <file>...
#   benchmark/run.sh --smoke      # all four workloads, tiny corpora, both modes
#
# Prints one line per metric (`workload metric value unit`) and, last, one
# JSON object with the result. See benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

target="${CARGO_TARGET_DIR:-target/benchmark}"
# Cargo reports on stderr, so stdout stays the benchmark's own.
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target"
bin="$target/release/hum-benchmark"

if [[ "${1:-}" == "--smoke" ]]; then
    # Every workload, untraced then traced; the binary itself checks that
    # each run prints exactly the metrics BENCHMARK.json lists and that
    # every answer matches the oracle.
    mkdir -p benchmark/work
    for trace in 0 1; do
        "$bin" run --workload all --seed 11 --seconds 1 --trace "$trace" --smoke \
            --out "benchmark/work/smoke_$trace.json" > /dev/null
    done
    echo "smoke ok: benchmark/work/smoke_0.json benchmark/work/smoke_1.json"
    exit 0
fi
exec "$bin" "$@"
