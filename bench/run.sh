#!/usr/bin/env bash
# The benchmark's one command. Run from the checkout root:
#
#   bash bench/run.sh --workload <name|all> --seed <n> [--seconds <s>] [--trace <0|1>]
#
# Everything the benchmark writes — the Go build and module caches, the
# binaries, per-run data dirs — lives under .bench_build/ in the checkout.
set -euo pipefail
root=$PWD
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/odad" ]; then
	echo "bench/run.sh: run from the root of a checkout that holds cmd/odad" >&2
	exit 2
fi
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local
export GOPROXY=off
go build -C "$root/bench" -o "$root/.bench_build/e2e" ./e2e
exec "$root/.bench_build/e2e" "$@"
