GO ?= go

.PHONY: all build test vet lint race bench-smoke bench-module examples staticcheck

all: build lint test

build:
	$(GO) build ./...

# test also runs the repository benchmark's own tests: bench/ is a
# module of its own, so ./... never reaches it.
test:
	$(GO) test ./...
	$(GO) test -C bench ./...

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
	@# Deleted surface must not grow back: the pre-shard bus, the
	@# baselines-as-options (figure modes of cmd/benchfig instead), and
	@# the old benchmark-snapshot gate (bench/ is the one benchmark).
	@if grep -rnE 'FetchSince|CursorFromTotal|AdaptBus|LegacyBus|"/since"|WithBackend|WithDeletionStrategy|WithMaxIterations|WithSplitProvTables|WithExchangeCoalescing|CompareBenchReports|RunBenchCases|LoadBenchReport|\bWithParallelism\b' \
		--include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build . ; then \
		echo "lint: removed surface reappeared (see above)"; exit 1; fi

bin/orchestralint: FORCE
	$(GO) build -o bin/orchestralint ./cmd/orchestralint

FORCE:

race:
	$(GO) test -race ./...

# bench-smoke executes every figure and design-comparison benchmark
# once, so the paper's cases keep compiling and running. It measures
# nothing: performance claims use bench/ (see bench-module).
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
