#!/usr/bin/env bash
# Builds aubench from source and runs it from the repository root with the
# given flags, e.g.
#
#   bash cmd/aubench/run.sh --workload dnn --seed 1 --seconds 40 --trace 0
#
# The Go build cache, temporary files and the binary stay in .bench_build
# at the root, so a run reads and writes nothing outside the checkout.
# aubench is its own module (go.mod here) that builds against the
# repository's module two directories up; without it the build fails.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/cmd/aubench" && go build -o "$build/aubench" .)
cd "$root"
exec "$build/aubench" "$@"
