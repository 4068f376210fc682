#!/usr/bin/env bash
# Builds cmd/histd and the benchmark from source into .bench_build/ and
# runs one workload. Run from the repository root:
#
#   bash e2ebench/run.sh --workload verdict --seed 1 --seconds 20 --trace 0
#
# Every file the Go toolchain writes (build cache, telemetry, module
# cache) stays under .bench_build/ in the working directory.
set -euo pipefail

root=$(pwd)
[[ -f "$root/go.mod" && -d "$root/cmd/histd" && -f "$root/e2ebench/go.mod" ]] || {
	echo "run.sh: run from the repository root (go.mod, cmd/histd and e2ebench/ not found)" >&2
	exit 2
}
out="$root/.bench_build"
mkdir -p "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go build -o "$out/histd" ./cmd/histd
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -histd "$out/histd" -out "$out/trace" "$@"
