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

# lint is the full static gate: gofmt, the toolchain's bundled vet passes
# (copylocks, lostcancel, printf, ...) plus the repo's own invariant
# suite (see DESIGN.md "Enforced invariants") through the same vet
# driver. Suppress a finding only with a reasoned directive:
#   //orchestralint:ignore <analyzer> <why this site is exempt>
lint: bin/orchestralint
	@if [ -n "$$(gofmt -l .)" ]; then gofmt -l .; echo "lint: files above need gofmt"; exit 1; fi
	$(GO) vet ./...
	$(GO) vet -vettool=bin/orchestralint ./...
	@# Deleted surface must not grow back: the pre-shard bus, the
	@# baselines-as-options (figure modes of cmd/benchfig instead), the
	@# old benchmark-snapshot gate (bench/ is the one benchmark), the
	@# second orchestrator (orchestra.System is the one), and the
	@# test-only provenance wrappers and §4.1.3 inverse program (the
	@# inverse program is a test oracle in internal/core), the history
	@# replay of base-trust changes (base trust is a filter on the (ℓR)
	@# rule), the per-operation evolution methods and op switch
	@# (View.Evolve makes one repair per diff), the test-only serial
	@# exchange switch (the equivalence tests replay through the public
	@# API), and the publish callback (push delivery is the one wake-up).
	@if grep -rnE 'FetchSince|CursorFromTotal|AdaptBus|LegacyBus|"/since"|WithBackend|WithDeletionStrategy|WithMaxIterations|WithSplitProvTables|WithExchangeCoalescing|CompareBenchReports|RunBenchCases|LoadBenchReport|\bWithParallelism\b|NewCDSS|RestoreInto|TrustEval|RankTrust|DerivationCounts|SupportDeclarative|InverseProgram|replayViewLocked|BaseTrustChanged|trustsBase|\b(Recompile|AddMappings|RemoveMappings|ApplyTrust|applyOpLocked)\(|serialExchange|withSerialExchange|OnPublish' \
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
