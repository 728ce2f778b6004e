GO ?= go

# bench-check gates against the newest committed benchmark snapshot;
# override for local experiments, e.g.
#   make bench-check BENCH_SNAPSHOT=BENCH_last.json BENCH_THRESHOLD=5
BENCH_SNAPSHOT ?= BENCH_pr9.json
BENCH_THRESHOLD ?= 15

.PHONY: all build test vet lint race bench bench-check bench-serving bench-smoke bench-module examples staticcheck

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint is the full static gate: the toolchain's bundled vet passes
# (copylocks, lostcancel, printf, ...) plus the repo's own invariant
# suite (see DESIGN.md "Enforced invariants") through the same vet
# driver. Suppress a finding only with a reasoned directive:
#   //orchestralint:ignore <analyzer> <why this site is exempt>
lint: bin/orchestralint
	$(GO) vet ./...
	$(GO) vet -vettool=bin/orchestralint ./...
	@# The pre-shard bus surface (PR 13 deleted it) must not grow back.
	@if grep -rnE 'FetchSince|CursorFromTotal|AdaptBus|LegacyBus|"/since"' \
		--include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build . ; then \
		echo "lint: removed bus surface reappeared (see above)"; exit 1; fi

bin/orchestralint: FORCE
	$(GO) build -o bin/orchestralint ./cmd/orchestralint

FORCE:

race:
	$(GO) test -race ./...

# bench writes a machine-readable benchmark snapshot (the BENCH_*.json
# format; see DESIGN.md "Benchmark baselines").
bench:
	$(GO) run ./cmd/benchfig -json -out BENCH_last.json

# bench-check is the bench-regression gate: rerun the benchmark cases
# and fail if any case's ns/op or allocs/op regressed more than
# BENCH_THRESHOLD percent against the committed BENCH_SNAPSHOT. The
# fresh measurements are kept in BENCH_last.json for inspection.
bench-check:
	$(GO) run ./cmd/benchfig -json -out BENCH_last.json -compare $(BENCH_SNAPSHOT) -threshold $(BENCH_THRESHOLD)

# bench-serving gates the serving-path cases alone at a tight 3%:
# BenchmarkServing sits directly on the push-exchange hot path, so the
# bus redesign must not tax it. Serving/* cases carry no figure number,
# hence -case instead of -fig; -samples takes each metric's best of 7
# so a 3% threshold survives run-to-run scheduler noise.
bench-serving:
	$(GO) run ./cmd/benchfig -json -case '^Serving/' -samples 7 -out BENCH_serving_last.json -compare BENCH_pr9.json -threshold 3

# bench-smoke executes every benchmark once so bench code cannot rot.
bench-smoke:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# bench-module covers the repository benchmark (bench/, BENCHMARK.json):
# it is a module of its own, so the root ./... patterns never build it
# and an API deletion could break it silently.
bench-module:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...
	bash bench/run.sh -quick

examples:
	for ex in quickstart federation incremental provexplorer bioshare durability evolution; do \
		$(GO) run ./examples/$$ex >/dev/null || exit 1; \
	done

staticcheck:
	staticcheck ./...
