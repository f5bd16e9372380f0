GO ?= go

.PHONY: all build test race vet fmt-check lint bench bench-compare golden fuzz-smoke oracle race-canary cover server-smoke chaos population-smoke query-smoke examples

all: build test vet fmt-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Run every example program (the public facade's clients); any non-zero
# exit fails the target. CI runs the same check.
examples:
	@set -e; for d in examples/*/; do \
		echo "== $$d"; $(GO) run ./$$d >/dev/null; \
	done

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Static analysis beyond go vet. staticcheck is pinned so CI and local
# runs agree on the finding set; when the binary is not on PATH (this
# repo builds offline — no go install from the network), the vet half
# still runs and the staticcheck half is skipped with a notice.
STATICCHECK_VERSION ?= 2025.1

lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not on PATH; skipped (install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

bench:
	$(GO) test -bench=. -benchmem ./...

# Compare the solve and front-end microbenchmarks between a base ref
# and the working tree. Uses benchstat when it is on PATH; otherwise
# falls back to the in-repo cmd/benchdiff comparator (geomean-only, no
# significance test). The comparison is written to bench-compare.txt.
#
# The pattern includes benchmarks that predate the solver engine
# (BatchSequential, InsensitivePerProgram) so the base side is never
# empty even when the base ref lacks the Solve*/PairSetReferents ones.
# It covers every solver that stores pairs in core.PairSet: CI (corpus
# and the store-heavy generated units), CS, Andersen and Steensgaard;
# SolveCI and SolveCS are single benchmarks on the one FIFO engine (a
# base ref older than that reports them as per-strategy sub-benchmarks
# such as SolveCI/fifo, which benchstat does not pair with SolveCI);
# SolvePopulationTail times CS, Andersen and Steensgaard on the
# generated units with the most Steensgaard meets and reports the
# Steensgaard/Andersen time ratio there; and FrontEnd times each
# front-end stage (lex, parse, sema, the VDG build plain and with
# diagnostics) over the corpus.
BENCH_BASE ?= HEAD
BENCH_PATTERN ?= SolveCI|SolveCIStoreHeavy|SolveCS|SolveAndersen|SolveSteensgaard|SolvePopulationTail|PairSetReferents|BatchSequential|InsensitivePerProgram|FrontEnd
BENCH_COUNT ?= 3
BENCH_PKGS ?= . ./internal/core

bench-compare:
	@set -e; \
	base_dir="$$(mktemp -d)"; \
	trap 'git worktree remove --force "$$base_dir" >/dev/null 2>&1 || rm -rf "$$base_dir"' EXIT; \
	git worktree add --detach "$$base_dir" $(BENCH_BASE) >/dev/null; \
	echo "== benchmarking base ($(BENCH_BASE))"; \
	(cd "$$base_dir" && $(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -count $(BENCH_COUNT) $(BENCH_PKGS)) > bench-base.txt || true; \
	echo "== benchmarking working tree"; \
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -count $(BENCH_COUNT) $(BENCH_PKGS) > bench-head.txt; \
	if command -v benchstat >/dev/null 2>&1; then \
		benchstat bench-base.txt bench-head.txt | tee bench-compare.txt; \
	else \
		$(GO) run ./cmd/benchdiff bench-base.txt bench-head.txt | tee bench-compare.txt; \
	fi

# Regenerate every checked-in golden file: the checker corpus output,
# the solver pin, the modref, traced-vet and per-backend CLI snapshots,
# the figures, the population JSON and the deterministic metrics block.
golden:
	$(GO) test ./internal/checkers -run Golden -update
	$(GO) test ./internal/backend -run TestSolversPinned -update
	$(GO) test ./cmd/aliaslab -run 'ModRef|TraceGolden|BackendGolden' -update
	UPDATE_GOLDEN=1 $(GO) test ./internal/experiments -run 'MetricsGolden|TestGoldenFigures|TestPopulationGoldenJSON'

# Statement-coverage floor for the public facade, the observability
# layer, the report renderers, the corpus generator, the demand-query
# engine, the solve dispatch, the CI/CS transfer functions, and the
# front end's parser, VDG builder and the slabs they allocate from —
# the packages behind the library's answers, every number the CLIs
# print, every generated test program, every query answer, every
# points-to pair, every graph the analyses read, and the tier and
# soundness verdict of every solve. Each package
# prints its headroom over the floor so a shrinking margin is visible
# before it becomes a failure. CI runs the same check.
COVER_FLOOR ?= 70.0
COVER_PKGS ?= . ./internal/obs ./internal/report ./internal/corpusgen ./internal/query ./internal/solve ./internal/core ./internal/slab ./internal/vdg ./internal/parser

cover:
	@set -e; \
	for pkg in $(COVER_PKGS); do \
		$(GO) test -coverprofile=/tmp/cover.out $$pkg >/dev/null; \
		pct="$$($(GO) tool cover -func=/tmp/cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}')"; \
		delta="$$(awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN {printf "%+.1f", p - f}')"; \
		echo "$$pkg coverage: $$pct% (floor $(COVER_FLOOR)%, delta $$delta)"; \
		ok="$$(awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN {print (p+0 >= f+0) ? 1 : 0}')"; \
		if [ "$$ok" != 1 ]; then echo "coverage below floor for $$pkg"; exit 1; fi; \
	done

# Differential/metamorphic oracle: the paper's invariants (CS ⊆ CI,
# widening lattice, indirect agreement) over the corpus and fixtures,
# plus parallel-batch determinism — under the race detector.
oracle:
	$(GO) test -race -count=1 ./internal/oracle

# The deliberately-racy shared-universe canary must FAIL under -race;
# a pass means the race detector lost sight of the pattern the worker
# pool exists to prevent.
race-canary:
	@if $(GO) test -race -tags racecheck -run TestSharedUniverseCanary ./internal/sched >/dev/null 2>&1; then \
		echo "race canary NOT caught: shared-universe race went undetected"; exit 1; \
	else \
		echo "race canary caught as expected"; \
	fi

# Short fuzzing pass over the robustness targets; CI runs the same.
fuzz-smoke:
	$(GO) test -fuzz=FuzzParse -fuzztime=20s ./internal/parser
	$(GO) test -fuzz=FuzzLoadAndSolve -fuzztime=20s ./internal/driver
	$(GO) test -fuzz=FuzzVet -fuzztime=20s .
	$(GO) test -fuzz=FuzzServeAnalyze -fuzztime=20s ./internal/server
	$(GO) test -fuzz=FuzzQuery -fuzztime=20s ./internal/query

# End-to-end smoke of the aliaslabd daemon over a real socket: start,
# curl every endpoint (including a duplicate request for the cache-hit
# path), SIGTERM, assert a clean drain.
server-smoke:
	sh scripts/server-smoke.sh

# Population smoke: generate a seeded population, run the full oracle
# lattice on every unit (with the batch-determinism probe) under the
# race detector, and pipe the same population through the agreement
# study. Zero failures and zero shrunk reproducers expected. CI runs
# the same check.
POP_N ?= 200
POP_SEED ?= 42

population-smoke:
	@set -e; \
	$(GO) build -race -o /tmp/corpusgen-race ./cmd/corpusgen; \
	/tmp/corpusgen-race -n $(POP_N) -seed $(POP_SEED) -check -out /tmp/corpusgen-repro -jobs 4; \
	if [ -d /tmp/corpusgen-repro ]; then echo "population-smoke: reproducers written"; exit 1; fi; \
	$(GO) build -o /tmp/corpusgen ./cmd/corpusgen; \
	$(GO) build -o /tmp/experiments ./cmd/experiments; \
	/tmp/corpusgen -n $(POP_N) -seed $(POP_SEED) | /tmp/experiments -population

# Demand-query population smoke: the metamorphic battery plus the
# demand-vs-exhaustive differential oracle over the whole corpus and a
# 200-unit generated population, under the race detector. Every
# violation shrinks to a committed fuzz seed, so a failure here leaves
# a reproducer behind. CI runs the same check.
query-smoke:
	$(GO) test -race -count=1 -run 'TestDemandPopulation|TestCheckDemandCorpus' ./internal/query/ ./internal/oracle/

# The injected-fault chaos suite under the race detector: panics,
# synthetic budget violations, and slow stages across the request
# pipeline must never crash the server, leak a goroutine, or corrupt a
# cached result.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos' ./internal/server
