GO ?= go

.PHONY: all build test race race-tier vet fmt lint check bench bench-suite bench-portfolio bench-bitslice fuzz serve-smoke

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-tier is the named concurrency gate: go vet plus race-enabled tests
# over the packages where data races are a live hazard — the query
# service, the racing portfolio backend, the metrics recorder they both
# write to, the presolve engine they all call, the bitsliced batch
# evaluator whose plans are shared across concurrent streams, and the
# hash-cons builder every goroutine interns into while it sweeps. Much faster
# than `make race`; check.sh runs this tier first so a race in the hot
# layers fails before the full suite spins up.
RACE_TIER = ./internal/serve/... ./internal/portfolio/... ./internal/obs/... ./internal/absint/... ./internal/bitslice/... ./internal/core/...
race-tier:
	$(GO) vet $(RACE_TIER)
	$(GO) test -race -count=1 $(RACE_TIER)

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

# lint runs both static-analysis layers: zenlint over the expression DAGs
# of every registered model, and zenvet over the Go source that builds
# them. Both exit non-zero on unsuppressed findings.
lint:
	$(GO) run ./cmd/zenlint
	$(GO) run ./cmd/zenvet

# check is the full hygiene gate: gofmt, vet, build, race-enabled tests.
check:
	sh scripts/check.sh

# serve-smoke exercises the zend verification service end to end: model
# listing, cached repeat query, deadline-expired query, batch, and a
# clean SIGTERM drain.
serve-smoke:
	sh scripts/serve_smoke.sh

bench:
	$(GO) test -bench=. -benchmem .

# bench-suite runs the pinned zenbench suite with the full budget and
# writes the next bench/BENCH_<n>.json, diffing against the prior file
# and failing on regressions past the threshold. CI runs the cheap
# `zenbench -smoke` variant via scripts/check.sh instead.
bench-suite:
	$(GO) run ./cmd/zenbench

# bench-portfolio runs only the portfolio and minesweeper sweep cases —
# the quick check that the racing backend's trajectory (win rates, shared
# clauses, ns/op vs the single backends) hasn't drifted. Nothing is
# written; diff against a pinned file with e.g.
#   go run ./cmd/zenbench -run 'portfolio|minesweeper' -baseline 6
bench-portfolio:
	$(GO) run ./cmd/zenbench -smoke -run 'portfolio|minesweeper'
	$(GO) test ./internal/portfolio/ -count=1

# bench-bitslice runs only the batch-evaluation cases — the quick check
# that the bitsliced engine's throughput edge over the scalar interpreter
# (packets/sec, speedup-x) and the streaming endpoint haven't drifted.
# Nothing is written.
bench-bitslice:
	$(GO) run ./cmd/zenbench -smoke -run 'bitslice|evaluate-stream'
	$(GO) test ./internal/bitslice/ -count=1

# fuzz runs long native differential-fuzzing campaigns (see internal/fuzz).
# Override FUZZTIME for longer hunts: make fuzz FUZZTIME=10m
FUZZTIME ?= 2m
fuzz:
	$(GO) test ./internal/fuzz -run '^$$' -fuzz '^FuzzDifferential$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fuzz -run '^$$' -fuzz '^FuzzListHeavy$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fuzz -run '^$$' -fuzz '^FuzzWide$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzCompilePredicate$$' -fuzztime $(FUZZTIME)
