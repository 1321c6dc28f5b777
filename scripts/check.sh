#!/bin/sh
# Pre-PR gate, and CI's check job: build, vet, formatting and package
# docs; the root module's tests (among them the source lint, and the
# verifier, lint and arena sweeps over the benchmark suite), again under
# the race detector; a 10 s native fuzz of the linked compile; the
# perfbench module's tests and a short benchmark correctness run; then
# the examples, every one of which compiles with Options.Verify on.
# Usage:
#
#   scripts/check.sh          # go test ./...
#   scripts/check.sh -short   # the same with go test -short ./..., which
#                             # skips the slow tests; the fuzz still runs 10 s
set -eu
cd "$(dirname "$0")/.."

short=""
if [ "${1:-}" = "-short" ]; then
    short="-short"
fi

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "files not gofmt-formatted:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== package docs =="
undoc=$(go list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./...)
if [ -n "$undoc" ]; then
    echo "packages missing a package doc comment:" >&2
    echo "$undoc" >&2
    exit 1
fi

echo "== go test =="
go test $short ./...

echo "== go test -race =="
go test -race -short ./...

echo "== fuzz: linked compile against the whole-program compile =="
# -fuzzminimizetime 0 keeps the 10 s executing instead of minimizing
# each new-coverage input; a failing input is still written to
# testdata/fuzz, unminimized.
go test -run '^$' -fuzz '^FuzzLinkedCompile$' -fuzztime 10s -fuzzminimizetime 0 ./internal/compiler

echo "== benchmark module: tests and a compile-scale correctness smoke =="
# perfbench is a module of its own, so the root go test stops at it; the
# smoke checks every generated program's value and exits 1 on a wrong one.
(cd perfbench && go test ./...)
python3 perfbench/run.py --workload compile-scale --seed 1 --seconds 3 --trace 0 > /dev/null

echo "== verifier sweep: examples =="
for d in examples/*/; do
    echo "-- $d"
    go run "./$d" > /dev/null
done

echo "check.sh: all gates passed"
