#!/bin/sh
# Pre-PR gate: build, vet, test (the root module, then a short native
# fuzz of the linked compile, the perfbench module and a short
# benchmark correctness run), then sweep the
# translation validator and the optimality analyzer over the benchmark
# suite and run the examples (every compilation in the examples runs
# with Options.Verify on). The lint sweep fails on any redundant save or excess shuffle
# move under any of the seven allocator configurations. Usage:
#
#   scripts/check.sh          # full test budget
#   scripts/check.sh -short   # short fuzzer budget
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

echo "== source lint: alloc baseline, Program immutability, engine parity =="
# lsrvet's alloc analyzer diffs `go build -gcflags=-m` output against
# ALLOC_BASELINE.json, which records the toolchain it was measured
# with; it fails fast with instructions if this machine's go MAJOR.MINOR
# differs (regenerate with `go run ./cmd/lsrvet -write`).
go run ./cmd/lsrvet

echo "== go test =="
go test $short ./...

echo "== go test -race =="
go test -race -short ./...

echo "== fuzz: linked compile against the whole-program compile =="
go test -run '^$' -fuzz '^FuzzLinkedCompile$' -fuzztime 10s ./internal/compiler

echo "== benchmark module: tests and a compile-scale correctness smoke =="
# perfbench is a module of its own, so the root go test stops at it; the
# smoke checks every generated program's value and exits 1 on a wrong one.
(cd perfbench && go test ./...)
python3 perfbench/run.py --workload compile-scale --seed 1 --seconds 3 --trace 0 > /dev/null

echo "== verifier sweep: benchmark suite, every configuration =="
go run ./cmd/lsrbench -verify

echo "== optimality lint sweep: benchmark suite, every configuration =="
go run ./cmd/lsrbench -lint

echo "== arena-lifetime escape analysis: benchmarks clean, seeded corpus caught =="
go run ./cmd/lsrbench -arena > /dev/null

echo "== verifier sweep: examples =="
for d in examples/*/; do
    echo "-- $d"
    go run "./$d" > /dev/null
done

echo "== fleet sustained-load gate: 2 replicas + lsrgate, short mode =="
sh scripts/loadgen.sh -short

echo "check.sh: all gates passed"
