#!/usr/bin/env bash
# Builds the e2ebench binary from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash e2ebench/run.sh --workload sim-dice-long --seed 1 --seconds 12 --trace 0
#   bash e2ebench/run.sh --all --seconds 12        # every workload, then a summary
#
# Everything the build and the run write goes under .bench_build/ in the
# checkout: the Go build cache, the binary, scratch journals and span logs.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d internal/sim ]]; then
	echo "e2ebench: $root does not hold the simulator's sources" >&2
	exit 2
fi

out="$root/.bench_build/e2ebench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off GOENV=off
(cd e2ebench && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" -out "$out" "$@"
