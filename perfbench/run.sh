#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the given flags. Run it from anywhere, for example:
#
#   bash perfbench/run.sh --workload purify-64 --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, temporary files and the Go
# command's own config and telemetry files stay inside
# <checkout>/.bench_build.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
