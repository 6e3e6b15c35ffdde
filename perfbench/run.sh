#!/usr/bin/env bash
# Builds mnnfast-serve and the perfbench program from source into
# .bench_build/ at the repository root, then runs perfbench with the
# given arguments:
#
#   bash perfbench/run.sh --workload qa-short --seed 1 --seconds 24 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd perfbench && go build -o "$out/bin/mnnfast-serve" mnnfast/cmd/mnnfast-serve \
	&& go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -server "$out/bin/mnnfast-serve" -workdir "$out" "$@"
