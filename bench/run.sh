#!/usr/bin/env bash
# Builds the benchmark and cmd/oasis-server from this checkout, then runs the
# benchmark with the given arguments from the repository root:
#
#   bash bench/run.sh                                   # all four workloads
#   bash bench/run.sh --workload label-durable --seed 3 --seconds 20 --trace 0
#   bash bench/run.sh --workload label-memory --trace 1  # per-layer numbers
#   bash bench/run.sh compare A.json B.json
#
# Everything it builds or writes (Go build cache, binaries, server data
# directories, result and span files) stays under .bench_build/.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"

# Keep the toolchain's caches and temporary files inside the checkout, and
# never let it reach for the network.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

# The benchmark records the VCS revision the toolchain stamps into it; where
# stamping fails (version control present but unusable), build without it.
(cd "$root/bench" && { go build -o "$out/bin/bench" . || go build -buildvcs=false -o "$out/bin/bench" .; })
go build -buildvcs=false -o "$out/bin/oasis-server" ./cmd/oasis-server

exec "$out/bin/bench" "$@"
