#!/bin/sh
# check.sh — the repo's full hygiene gate: formatting, vet, build, both
# static-analysis layers (zenlint on model DAGs, zenvet on model source),
# and the test suite under the race detector. Run from anywhere;
# `make check` is an alias.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

# perfbench is a nested module, so `go build ./...` never compiles it: a
# change to an API the benchmark calls would pass every step above and
# still break the benchmark. Vet and build it offline against this tree.
echo "== perfbench (nested module: vet + build)"
(cd perfbench &&
    GOWORK=off GOPROXY=off GOFLAGS="-mod=readonly -buildvcs=false" go vet . &&
    GOWORK=off GOPROXY=off GOFLAGS="-mod=readonly -buildvcs=false" go build -o /dev/null .)

echo "== zenlint (DAG-level model analysis over all registered models)"
go run ./cmd/zenlint

echo "== zenvet (host-language model code checks)"
go run ./cmd/zenvet

# race-tier is the named concurrency gate (also `make race-tier`): vet
# plus race-enabled tests over the packages where data races are a live
# hazard — the query service, the racing portfolio backend, the metrics
# recorder both write to, the presolve engine every query path calls,
# the bitsliced batch evaluator whose compiled plans are shared across
# concurrent streams, and the hash-cons builder, which sweeps its table
# under the lock every goroutine interns through. It runs first so a
# race in the hot layers fails fast.
echo "== race-tier (go vet + go test -race: serve, portfolio, obs, absint, bitslice, core)"
go vet ./internal/serve/... ./internal/portfolio/... ./internal/obs/... ./internal/absint/... ./internal/bitslice/... ./internal/core/...
go test -race -count=1 ./internal/serve/... ./internal/portfolio/... ./internal/obs/... ./internal/absint/... ./internal/bitslice/... ./internal/core/...

# The rest of the suite still runs under the race detector — the tier
# above fails fast, it does not replace full coverage: internal/cancel
# and the zen ctx tests are concurrency-heavy too, and the portfolio
# stress tests (concurrent queries, deadline mid-race, goroutine-leak
# checks) only mean something under -race.
echo "== go test -race ./..."
go test -race ./...

echo "== zend serve smoke (models, cache, deadline, batch, update, drain, restart)"
sh scripts/serve_smoke.sh

echo "== zend metrics lint (/metrics exposition format + stable families)"
go run ./cmd/zend -check-metrics

echo "== zenbench smoke (pinned suite sanity, nothing written)"
go run ./cmd/zenbench -smoke

# The codegen smoke proves the dataplane export path end to end: emit a
# standalone Go package for a registry model, then vet and compile it in
# a scratch module with no zen-go dependency. Agreement with the
# interpreter is covered by zen's codegen tests; this step gates the
# emitted-source-still-compiles property.
echo "== zencodegen smoke (emit nets/acl.allow, vet + build standalone)"
cgdir=$(mktemp -d)
trap 'rm -rf "$cgdir"' EXIT
go run ./cmd/zencodegen -model nets/acl.allow -dir "$cgdir"
(cd "$cgdir" && GOWORK=off go vet ./... && GOWORK=off go build ./...)

# The fixed-seed campaign is also the portfolio verdict-parity gate and
# the presolve-parity gate: every query runs on all six engines
# (interp, bitslice, bdd, sat, stateset, portfolio) and
# additionally solves the presolve-simplified DAG, failing on any
# verdict, witness, model-count, lane, or simplified-vs-original
# divergence.
echo "== zenfuzz smoke (deterministic 2k-query six-engine + presolve parity campaign)"
go run ./cmd/zenfuzz -n 2000 -seed 1 -progress 0

echo "== go test -fuzz (10s per target)"
for target in ./internal/fuzz:FuzzDifferential ./internal/fuzz:FuzzListHeavy \
    ./internal/fuzz:FuzzWide ./internal/serve:FuzzCompilePredicate; do
    pkg=${target%%:*}
    fn=${target#*:}
    echo "-- $fn ($pkg)"
    go test "$pkg" -run '^$' -fuzz "^${fn}\$" -fuzztime 10s
done

echo "ok: all checks passed"
