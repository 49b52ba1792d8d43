#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository
# root, for example:
#
#   bash fpgabench/run.sh --workload table2-refute --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/:
# the Go build cache, the binary, the daemon's journals and the traces.
set -euo pipefail
out=.bench_build/fpgabench
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off CGO_ENABLED=0
export GOCACHE="$PWD/$out/gocache" GOMODCACHE="$PWD/$out/gomodcache" GOTMPDIR="$PWD/$out/tmp"
(cd fpgabench && go build -buildvcs=false -o "../$out/fpgabench" .) >&2
commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
exec "$out/fpgabench" --workdir "$out" --commit "$commit" "$@"
