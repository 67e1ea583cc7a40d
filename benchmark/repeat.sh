#!/usr/bin/env bash
# Runs the full untraced set N times and prints, per workload and
# end-to-end metric, the spread of the N values against the metric's bound.
#
#   benchmark/repeat.sh N [--vary-seed] [--seed <u64>] [--seconds <n>]
#
# With one seed the spread is run-to-run noise; with --vary-seed run i uses
# seed + i, which is the acceptance rule's own procedure (ten seeds, first
# to third quartile as a share of the median).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

runs="${1:?usage: benchmark/repeat.sh N [--vary-seed] [--seed <u64>] [--seconds <n>]}"
shift
seed=1 seconds=20 vary=0
while [[ $# -gt 0 ]]; do
    case "$1" in
        --vary-seed) vary=1 ;;
        --seed) seed="$2"; shift ;;
        --seconds) seconds="$2"; shift ;;
        *) echo "unknown option $1" >&2; exit 2 ;;
    esac
    shift
done

mkdir -p benchmark/work
files=()
for ((i = 0; i < runs; i++)); do
    out="benchmark/work/repeat_$i.json"
    benchmark/run.sh --workload all --seed $((seed + vary * i)) --seconds "$seconds" \
        --trace 0 --out "$out" > /dev/null
    files+=("$out")
done
benchmark/run.sh spread "${files[@]}"
