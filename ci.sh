#!/usr/bin/env bash
# Local CI gate: build, test, lint. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
cargo test -q

# Storage durability: exhaustive fault-injection, truncation, and bit-flip
# matrices over the segment and manifest formats (the one generation,
# HUMSEG02 / HUMMAN02), the compaction crash-state enumeration, and replaced
# segment files deleted, flipped or truncated under a compaction's build.
# Every fault must surface as a typed StorageError — never a panic, never
# silently wrong data.
cargo test -q -p hum-qbh --test storage_faults

# Serving transport against a mock service.
cargo test -q -p hum-server

# Kernel layer: the shape everyone runs (unrolled lanes, AVX2 where the CPU
# has it) against its scalar reference — a shape may change speed but never
# bits. The property suite, which also compares the engine's three
# per-candidate kernels across shapes, runs in debug and in release (the
# arithmetic and the `unsafe` run optimised everywhere else); the kernel
# unit tests and the `repro kernels --quick` smoke below check the same.
# Then the engine digest — one pass over the flat sweep on a fixed workload,
# every line carrying the answers, the index counters and the cascade funnel
# (lb, lbi, exact, abandoned, cells) — must hash to the committed
# results/engine_digest.sha256: a change that moves an answer or a counter
# re-baselines it on purpose, in the same commit.
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
echo "engine_digest (one pass over the flat sweep: answers, index counters, cascade funnel) equals the committed hash"

# The paper tables regenerate: counters, tightness and accuracy cells are
# deterministic by design, so the nine csv under results/ must equal a fresh
# run at the default scale byte for byte (~65 s). Every one of them goes
# through the normal form; Figs 6, 7 and 10 also pin the synthetic dataset
# generators and the tightness metric. The json of the seven experiments
# without wall-clock fields must regenerate too: it carries what the csv
# leave out, such as both methods' R*-tree page accesses and matches in
# Figs 8-10 (obs and extras json hold timings, so only their csv compare).
PAPER_TABLES=(table2 table3 fig6 fig7 fig8 fig9 fig10 obs extras)
DETERMINISTIC_JSON=(table2 table3 fig6 fig7 fig8 fig9 fig10)
cargo run -q --release -p hum-bench --bin repro -- "${PAPER_TABLES[@]}" --out "$DIGEST_DIR/tables" > /dev/null
PAPER_FILES=()
for table in "${PAPER_TABLES[@]}"; do PAPER_FILES+=("$table.csv"); done
for table in "${DETERMINISTIC_JSON[@]}"; do PAPER_FILES+=("$table.json"); done
for file in "${PAPER_FILES[@]}"; do
    if ! cmp "$DIGEST_DIR/tables/$file" "results/$file"; then
        echo "results/$file does not regenerate; if intended, recommit with:" >&2
        echo "  cargo run --release -p hum-bench --bin repro -- ${PAPER_TABLES[*]}" >&2
        exit 1
    fi
done
echo "paper tables (nine csv, seven json) regenerate byte-identically"

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

# Two experiments at quick scale, which enforces no kernel speedup, so
# wall-clock noise cannot fail this line. What can: a kernel shape whose
# bits differ from its reference (`repro kernels` is the only kernel timing
# instrument) or a served request rejected.
cargo run -q --release -p hum-bench --bin repro -- kernels serve --quick --out "$DIGEST_DIR/smoke"

# The store's write behaviour: a paper-scale ingest (~2 s) must flush,
# compact and write exactly what results/ingest.csv records — every column
# but the wall-clock inserts/sec, the byte columns in the HUMSEG02 /
# HUMMAN02 format — and its reopened store must answer identically to the
# in-memory build.
cargo run -q --release -p hum-bench --bin repro -- ingest --out "$DIGEST_DIR/ingest" > /dev/null
if ! cmp <(cut -d, -f1,3- "$DIGEST_DIR/ingest/ingest.csv") <(cut -d, -f1,3- results/ingest.csv); then
    echo "results/ingest.csv does not regenerate (inserts/sec aside); if intended, recommit with:" >&2
    echo "  cargo run --release -p hum-bench --bin repro -- ingest" >&2
    exit 1
fi
echo "ingest (flushes, compactions, segments, bytes written, reopen identity) equals results/ingest.csv"

# The bytes the store writes: a fixed corpus indexed through 7 flushes and
# 2 compactions into 3 segments (~0.1 s) must leave a manifest and segment
# files whose hashes, hashed together, equal results/store_digest.sha256.
# The ingest pin above checks sizes and counts; this one checks content:
# the format generation (HUMSEG02 / HUMMAN02), and that a compaction, which
# merges the files it replaces, writes the entries the flushes wrote.
QBH=target/release/qbh
"$QBH" generate "$DIGEST_DIR/store-corpus" --songs 20 --seed 7 > /dev/null
"$QBH" index "$DIGEST_DIR/store-corpus" "$DIGEST_DIR/store" --memtable 64 --compact-at 3 > /dev/null
if ! (cd "$DIGEST_DIR/store" && sha256sum MANIFEST seg-*.humseg) | sha256sum | cmp -s - results/store_digest.sha256; then
    echo "the store's bytes differ from results/store_digest.sha256; if intended, regenerate with:" >&2
    echo "  T=\$(mktemp -d); $QBH generate \$T/corpus --songs 20 --seed 7 && $QBH index \$T/corpus \$T/store --memtable 64 --compact-at 3 && (cd \$T/store && sha256sum MANIFEST seg-*.humseg) | sha256sum > results/store_digest.sha256" >&2
    exit 1
fi
echo "store digest (manifest and segment bytes of a fixed ingest) equals the committed hash"

# The repo benchmark (BENCHMARK.json) is a workspace of its own: its unit
# tests, then every workload at smoke scale — each checks its answers
# against the brute-force oracle and that it prints exactly the declared
# metrics. One self-test is skipped: its stage replay re-implements the
# k-NN probe → close schedule the engine no longer runs, so its k-NN
# counters cannot match; deleting the replay is ROADMAP item 1(b).
cargo test --release --offline --manifest-path benchmark/Cargo.toml --target-dir target/benchmark \
    -- --skip replay::tests::replay_reproduces_the_real_query_on_500_melodies --exact
bash benchmark/run.sh --smoke

# Every panic!() in library code must be documented and listed in
# tools/panic_allowlist.txt (bad input is a typed error from a try_ API, so
# the list holds only broken caller invariants); hum-qbh and hum-server are
# additionally scanned for .unwrap()/.expect() since they parse untrusted
# bytes (store files and wire frames respectively). The kernel layer is held
# to the same standard (it additionally contains the only unsafe in the
# workspace, each block SAFETY-annotated).
./tools/check_panics.sh

cargo clippy --all-targets -- -D warnings

# Public docs build warning-free: an intra-doc link to a private or deleted
# item fails here, so removing code cannot leave a dangling link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --keep-going
