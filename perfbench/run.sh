#!/usr/bin/env bash
# Builds the benchmark against the repository checkout it sits in, then
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload small-fresh --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and temporary files, engine data and
# trace files all stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
# Build output goes to stderr: the last line of stdout is the result.
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --outdir "$out" "$@"
