#!/usr/bin/env bash
# Builds sfcpd and the request benchmark from the checkout this is run in,
# then runs the benchmark against that sfcpd. Run it from the repository
# root; every argument is passed on, for example:
#
#   bash reqbench/run.sh --workload small_json --seed 1 --seconds 5 --trace 0
#
# Build caches, binaries, temp dirs and run records all stay under
# .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f go.mod || ! -d cmd/sfcpd ]]; then
	echo "run.sh: no sfcpd sources here (go.mod, cmd/sfcpd); run it from the repository root" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

# With telemetry on (its default is local mode), the first go command under
# a fresh config dir starts a detached upload process that outlives it.
# "go telemetry off" itself starts none.
go telemetry off
go build -o "$out/sfcpd" ./cmd/sfcpd
(cd reqbench && go build -o "$out/reqbench" .)
exec "$out/reqbench" -sfcpd "$out/sfcpd" -out "$out" "$@"
