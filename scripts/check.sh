#!/usr/bin/env bash
# check.sh — the repo gate: build, vet, format, tmplint, race tests,
# and the benchmark module's own vet and tests.
# Every PR must pass this; CI runs it on push and pull_request.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l"
unformatted=$(gofmt -l . | grep -v '^testdata/' | grep -v '/testdata/' || true)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> tmplint -tests ./..."
# -tests loads each package's _test.go files too, so the test-aware
# analyzers (maprange, goroutine) police test code as well: a map-order
# dependent assertion in a test is exactly as flaky as one in the tree.
go run ./cmd/tmplint -tests ./...

echo "==> go test -race -shuffle=on ./..."
# The race detector slows the simulator-heavy packages ~10x, but the
# experiments suite now runs its cells on the parallel runner (one
# worker per core by default), so 15m per package is ample headroom.
# -shuffle=on randomizes test order each run: tests must not depend on
# sibling-test side effects, matching the determinism contract's
# "every cell is a pure function of its config" rule.
go test -race -shuffle=on -timeout 15m ./...

echo "==> (cd bench && go vet . && go test .)"
# bench/ is its own module, so ./... above skips it. Its tests are the
# only check that bench/replay.go still replays RunPlacement and
# RunShardedPlacement call for call, including its by-name reflection
# over Mover and PlacementResult fields.
(cd bench && go vet . && go test .)

echo "All checks passed."
