#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it; every file
# it writes stays under .bench_build at the checkout root.
#
#   bash perfbench/run.sh --workload search --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --compare before.txt after.txt
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --root "$root" "$@"
