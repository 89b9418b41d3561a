#!/usr/bin/env bash
# fuzz.sh — run every fuzz target in the module for a fixed 10 s each.
# `go test` only replays the seed corpora; this explores past them. A
# failing input is saved under its package's testdata/fuzz/<Name>/, and
# committing it there makes it a seed every `go test` run replays.
# Time-bounded and randomized, so it stays out of check.sh.
set -euo pipefail

cd "$(dirname "$0")/.."

# `go test -list` prints each package's matching names, then an "ok"
# line naming the package; pair them up as "pkg Name...".
targets=$(go test -list '^Fuzz' ./... |
    awk '/^Fuzz/ { names = names " " $1; next }
         /^ok/ { if (names != "") print $2 names; names = "" }')

status=0
while read -r pkg names; do
    for name in $names; do
        echo "==> $pkg $name"
        if ! go test -run '^$' -fuzz "^${name}\$" -fuzztime 10s "$pkg"; then
            status=1
        fi
    done
done <<< "$targets"
exit $status
