#!/usr/bin/env bash
# The one command of the repo's benchmark (see bench/README.md).
#
#   bench/run.sh                     every workload: end to end, then the layers pass
#   bench/run.sh --smoke             each workload at 2 timesteps, n = 1 (< 20 s after the build)
#   bench/run.sh --seed N --rounds N as the first form, other seed / sample count
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                    one contract run; the last stdout line is its JSON result
#   bench/run.sh compare OLD.json NEW.json | self-check | dictionary [benchmark-json|markdown]
#   bench/run.sh test                the unit tests of the benchmark itself
#
# Builds the `ladder` package first: offline, into the repo's target
# directory (or $CARGO_TARGET_DIR), never into bench/, and with no file
# outside bench/ rewritten.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-target}"

if [[ "${1:-}" == "test" ]]; then
    exec cargo test --release --offline --manifest-path bench/Cargo.toml --target-dir "$target"
fi

# Cargo's progress goes to stderr; stdout stays the benchmark's own.
cargo build --release --offline --manifest-path bench/Cargo.toml --target-dir "$target" >&2

export LADDER_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export LADDER_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$target/release/ladder" "$@"
