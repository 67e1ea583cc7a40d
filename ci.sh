#!/usr/bin/env bash
# Local CI gate: build, test, lint. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
cargo test -q

# Storage durability: exhaustive fault-injection, truncation, and bit-flip
# matrices over the segment and manifest formats, plus the compaction
# crash-state enumeration. Every fault must surface as a typed StorageError
# — never a panic, never silently wrong data.
cargo test -q -p hum-qbh --test storage_faults

# Serving transport against a mock service.
cargo test -q -p hum-server

# Kernel layer: the shape everyone runs (unrolled lanes, AVX2 where the CPU
# has it) against its scalar reference — a shape may change speed but never
# bits. The property suite runs in debug and in release (the arithmetic and
# the `unsafe` run optimised everywhere else); then the engine digest —
# answers and counters over a fixed workload on every backend — builds each
# section under both kernel modes in one process, failing if their bytes
# differ, and must hash to the committed results/engine_digest.sha256: a
# change that moves an answer or a counter re-baselines it on purpose, in
# the same commit.
cargo test -q -p hum-core --test kernel
cargo test -q --release -p hum-core --test kernel
# The flat feature sweep against the per-point scan it replaced (ids, order,
# distance bits, stats): its branch-free arithmetic, too, is optimised only
# in release.
cargo test -q -p hum-index --test props
cargo test -q --release -p hum-index --test props
DIGEST_DIR=$(mktemp -d)
trap 'rm -rf "$DIGEST_DIR"' EXIT
cargo run -q --release -p hum-core --example engine_digest > "$DIGEST_DIR/digest.txt"
if ! sha256sum < "$DIGEST_DIR/digest.txt" | cmp -s - results/engine_digest.sha256; then
    echo "engine_digest differs from results/engine_digest.sha256; if intended, regenerate with:" >&2
    echo "  cargo run -q --release -p hum-core --example engine_digest | sha256sum > results/engine_digest.sha256" >&2
    exit 1
fi
echo "engine_digest bit-identical across kernel modes, and to the committed hash"

# The paper tables regenerate: counters and accuracy cells are deterministic
# by design, so the six csv under results/ must equal a fresh run at the
# default scale byte for byte (~30 s).
PAPER_TABLES=(table2 table3 fig8 fig9 obs extras)
cargo run -q --release -p hum-bench --bin repro -- "${PAPER_TABLES[@]}" --out "$DIGEST_DIR/tables" > /dev/null
for table in "${PAPER_TABLES[@]}"; do
    if ! cmp "$DIGEST_DIR/tables/$table.csv" "results/$table.csv"; then
        echo "results/$table.csv does not regenerate; if intended, recommit with:" >&2
        echo "  cargo run --release -p hum-bench --bin repro -- ${PAPER_TABLES[*]}" >&2
        exit 1
    fi
done
echo "paper tables regenerate byte-identically"

# Scale harness smoke: the New_PAA feature-dimension sweep (d = 8, 16, 32)
# at quick scale, including its shape check that every d returns identical
# matches for every hum (no false negatives at any d). Results land in the
# throwaway digest dir, not results/ (the committed baseline is
# regenerated deliberately).
cargo run -q --release -p hum-bench --bin repro -- scale --quick --out "$DIGEST_DIR/scale"

# Hum-fraction harness smoke: a client loop over growing prefixes of each
# hum against a live server, every answer checked bit for bit against the
# in-process one; the instrument the prefix-matching decision rests on.
cargo run -q --release -p hum-bench --bin repro -- stream --quick --out "$DIGEST_DIR/stream"

# The repo benchmark (BENCHMARK.json) is a workspace of its own: its unit
# tests, then every workload at smoke scale — each checks its answers
# against the brute-force oracle and that it prints exactly the declared
# metrics. One self-test is skipped: its stage replay re-implements the
# k-NN probe → close schedule the engine no longer runs, so its k-NN
# counters cannot match; deleting the replay is ROADMAP item 1(b).
cargo test --release --offline --manifest-path benchmark/Cargo.toml --target-dir target/benchmark \
    -- --skip replay::tests::replay_reproduces_the_real_query_on_500_melodies --exact
bash benchmark/run.sh --smoke

# Every panic!() in library code must be a documented wrapper around a
# try_ API (tools/panic_allowlist.txt); hum-qbh and hum-server are
# additionally scanned for .unwrap()/.expect() since they parse untrusted
# bytes (store files and wire frames respectively). The kernel layer is held
# to the same standard (it additionally contains the only unsafe in the
# workspace, each block SAFETY-annotated).
./tools/check_panics.sh

cargo clippy --all-targets -- -D warnings

# Public docs build warning-free: an intra-doc link to a private or deleted
# item fails here, so removing code cannot leave a dangling link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --keep-going
