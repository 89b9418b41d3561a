#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of a
# checkout. The Go build cache, module path, toolchain settings and the
# binary all live under .bench_build/, so a run writes nothing outside
# the checkout.
#
#   bash bench/run.sh --workload cloud-steady --seed 42 --seconds 20 --trace 0
#   bash bench/run.sh -seed 42 -out bench/results/set1.json
#   bash bench/run.sh -compare A.json B.json
set -euo pipefail

root=$(pwd)
work="$root/.bench_build"
mkdir -p "$work"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" XDG_CONFIG_HOME="$work/config"
export GOTOOLCHAIN=local GOFLAGS=

cd "$root/bench"
# VCS stamping records the commit in every result; a checkout that is
# not a git work tree (or one git refuses to read) builds without it.
go build -o "$work/bench" . 2>/dev/null || go build -buildvcs=false -o "$work/bench" .
cd "$root"
exec "$work/bench" "$@"
