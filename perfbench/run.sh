#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from
# the checkout root; every argument is passed through, e.g.
#
#   bash perfbench/run.sh --workload session --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare DIR_A DIR_B
#
# The build cache and the binary live under .bench_build, so nothing is
# read or written outside the checkout. Without the repository's own
# sources next to it (../go.mod) the build fails and so does the run.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$build/bin/perfbench" .)
if [ -z "${PERFBENCH_COMMIT:-}" ]; then
	PERFBENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
	export PERFBENCH_COMMIT
fi
cd "$root"
exec "$build/bin/perfbench" "$@"
