#!/usr/bin/env bash
# Guards the public API against undocumented panics.
#
# Every `panic!(` in library code (the bottom-of-file `#[cfg(test)]` modules
# are excluded) must appear verbatim in tools/panic_allowlist.txt. Inserts
# and queries have only `try_` forms that return a typed error, so the
# allowlist is short: each entry is a panic its function documents (an
# invariant the caller broke, such as a corpus that cannot be built), and a
# new panic on bad input should return a typed `EngineError` instead.
#
# The `hum-qbh` and `hum-server` crates get a stricter scan: the storage
# layer promises that untrusted snapshot bytes can never panic and the
# server promises the same for untrusted wire bytes, so `.unwrap()` /
# `.expect(` / `unreachable!(` sites there (outside tests and comments) are
# held to the same allowlist discipline as `panic!(` is elsewhere. The
# kernel layer (crates/core/src/kernel/) gets the same strict treatment:
# it holds the workspace's only `unsafe`, so any hidden unwrap there is a
# debugging hazard out of proportion to its size. The request builder
# (crates/core/src/session.rs) is strict too: it buffers caller-controlled
# frames, the same trust level as wire bytes. In the `qbh` binary
# (crates/qbh/src/bin/) the strict scan also flags `print!(` / `println!(`:
# they panic when stdout is a closed pipe, so results go through the CLI's
# one writer, which ends quietly instead.
#
# Run with `--update` after a deliberate change to a documented panic.
set -euo pipefail
cd "$(dirname "$0")/.."

allowlist=tools/panic_allowlist.txt

scan() {
  find crates -path '*/src/*' -name '*.rs' -print0 | sort -z |
    while IFS= read -r -d '' f; do
      strict=0
      prints=0
      case "$f" in
        crates/qbh/src/bin/*) strict=1 prints=1 ;;
        crates/qbh/src/*|crates/server/src/*|crates/core/src/kernel/*) strict=1 ;;
        crates/core/src/session.rs) strict=1 ;;
      esac
      awk -v file="$f" -v strict="$strict" -v prints="$prints" '
        /^#\[cfg\(test\)\]/ { exit }  # test module starts: stop scanning
        {
          line = $0
          gsub(/^[ \t]+|[ \t]+$/, "", line)
          if (line ~ /^\/\//) next    # comments and doc examples
          if (line ~ /panic!\(/ ||
              (strict && line ~ /\.unwrap\(\)|\.expect\(|unreachable!\(/) ||
              (prints && line ~ /(^|[^a-z_])print(ln)?!\(/)) {
            print file ": " line
          }
        }
      ' "$f"
    done
}

if [[ "${1:-}" == "--update" ]]; then
  scan > "$allowlist"
  echo "check_panics: rewrote $allowlist ($(wc -l < "$allowlist") entries)"
  exit 0
fi

if ! diff -u "$allowlist" <(scan); then
  echo >&2
  echo "check_panics: library panic!() sites differ from $allowlist." >&2
  echo "If the change is deliberate and the panic is documented, run" >&2
  echo "  tools/check_panics.sh --update" >&2
  echo "Otherwise return a typed EngineError through a try_ API instead." >&2
  exit 1
fi
echo "check_panics: all library panic sites are allowlisted."
