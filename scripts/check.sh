#!/usr/bin/env bash
# check.sh — the full correctness gate, runnable locally and in CI.
#
#   ./scripts/check.sh          # everything
#   ./scripts/check.sh quick    # skip the race and promodebug test passes
#
# Order is cheapest-first so formatting and vet problems surface before
# the slower test passes.
set -euo pipefail
cd "$(dirname "$0")/.."

step() { echo "== $*"; }

step "gofmt"
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

step "go vet ./..."
go vet ./...

step "benchmark module (_promodbench: go vet + go test)"
# _promodbench is its own Go module (replace promonet => ../), so
# ./... never builds it; an internal API change could otherwise break
# the benchmark with every other gate green.
(cd _promodbench && go vet ./... && go test ./...)

step "go build ./... (default and promodebug)"
go build ./...
go build -tags promodebug ./...

step "promolint ./... (full analyzer suite, findings saved to lint-findings.json)"
# One promolint invocation analyzes both build-tag sets (default and
# promodebug) and dedupes shared files. lint-findings.json is a per-run
# artifact (gitignored), regenerated from scratch every time so stale
# findings can never leak between runs; it is written even on failure
# so CI can upload it, and a stale lint-baseline.json entry is itself a
# failure.
rm -f lint-findings.json
if ! go run ./cmd/promolint -json -baseline lint-baseline.json ./... > lint-findings.json; then
    cat lint-findings.json >&2
    exit 1
fi

step "lint report sanity (every analyzer timed, wall and cpu)"
analyzers=$(go run ./cmd/promolint -list | wc -l)
for field in wall_nanos cpu_nanos; do
    timed=$(grep -c "\"$field\"" lint-findings.json || true)
    if [[ "$timed" -ne "$analyzers" ]]; then
        echo "lint-findings.json carries $timed per-analyzer $field timings, want $analyzers" >&2
        exit 1
    fi
done

step "lint-parallel-determinism (workers 1 vs $(nproc), findings must be byte-identical)"
# The parallel driver merges per-package findings in a fixed order, so
# any worker count must reproduce the serial findings exactly. Compare
# the plain-text reports (the JSON report embeds run-dependent
# timings).
go run ./cmd/promolint -workers 1 -baseline lint-baseline.json ./... > lint-serial.txt || true
go run ./cmd/promolint -workers "$(nproc)" -baseline lint-baseline.json ./... > lint-parallel.txt || true
if ! diff -u lint-serial.txt lint-parallel.txt; then
    echo "parallel promolint findings differ from the serial reference" >&2
    exit 1
fi
rm -f lint-serial.txt lint-parallel.txt

step "hotpath-alloc runtime cross-check (BenchmarkSpanDisabled, 0 allocs/op)"
# The static hotpath-alloc analyzer cannot see allocations hidden behind
# cross-package calls; the obs disabled-path benchmark closes that blind
# spot. Both gates must hold together.
bench_out=$(go test ./internal/obs/ -run '^$' -bench BenchmarkSpanDisabled -benchtime 100x -benchmem)
echo "$bench_out" | grep BenchmarkSpanDisabled
if ! echo "$bench_out" | grep -q '\b0 allocs/op'; then
    echo "BenchmarkSpanDisabled allocates — the obs disabled fast path regressed" >&2
    exit 1
fi

step "promod snapshot-swap race suite (go test -race TestConcurrentSnapshotSwap)"
# The swap protocol's whole contract — every admitted request is served
# from exactly one pinned snapshot, reloads never tear a view or drop an
# in-flight request — only fails under concurrency, so this test runs
# under the race detector even in quick mode (the full -race pass below
# covers it too, but attributing a failure to the swap protocol directly
# is worth the few extra seconds).
go test -race -run 'TestConcurrentSnapshotSwap' ./internal/promod

if [[ "${1:-}" == "quick" ]]; then
    step "go test ./... (quick mode: no -race, no promodebug pass)"
    go test ./...
    echo "OK (quick)"
    exit 0
fi

step "go test -race ./..."
# internal/lint re-typechecks fixture modules per mutation; as the
# module grows that pass alone runs well past the default 600s package
# budget under the race detector (~750s at 100 files).
go test -race -timeout 1800s ./...

step "go test -tags promodebug ./... (runtime invariant checks active)"
go test -tags promodebug ./...

step "fuzz smoke (FuzzReadEdgeList: bulk loader vs reference reader, 20s)"
# The seed corpus runs in every go test pass above; this spends 20s of
# mutated inputs on the differential oracle between the bulk edge-list
# loader and the insertion-based reference reader it replaced.
go test -run '^$' -fuzz '^FuzzReadEdgeList$' -fuzztime 20s ./internal/graph

echo "OK"
