# Developer entry points. The repo is plain `go build ./...`-able; these
# targets just bundle the common invocations.

# Benchmarks included in perf snapshots: the simulator hot path (tester,
# engines, network reuse), the serving layer's per-query overhead, the
# exponential-q representative-selection guard, and the micro-benchmarks
# behind them. The experiment benchmarks (E1-E12) are reproduction runs,
# not perf-tracking targets.
BENCH ?= TesterByK|TesterWarmByK|TesterRunWarm|EnginesCompare|NetworkReuse|ServeConcurrent|Representatives|WireCodec|Pruning$$|PrunerVsBrute|PublicAPI|CancelLatency|CancelOverhead|MetricsHotPath|Corestore
SNAPSHOT ?= BENCH_24.json

# Maximum tolerated allocs/op regression (percent) between the two latest
# committed snapshots; `make bench-gate` (a blocking CI step) fails beyond
# it. Allocation counts are deterministic enough to gate on; ns/op is not
# and stays informational.
ALLOCS_REGRESS_BUDGET ?= 10

.PHONY: all build test race vet fmt lint layering bench bench-compare bench-gate check serve load

all: check

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# vet also vets perfbench/, a module of its own (replace cycledetect => ../)
# that the root `go vet ./...` never compiles, as CI does: a field or name
# removed from internal/ fails here, not at the next benchmark run.
vet:
	go vet ./...
	cd perfbench && go vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# lint runs ckvet, the repo's own analyzer suite (internal/analysis):
# lockhold (no blocking call while a mutex is held, which no deterministic
# test catches) and ckvetdirective (well-formed ignore directives). The
# zero-alloc, ctx-flow and metric-registration invariants are held by
# exact tests. Dependency-free and offline-friendly; CI runs the same
# command as a blocking step. See README "Static analysis".
lint:
	go run ./cmd/ckvet ./...

# layering fails when the compiled-core store depends on a layer above it.
# corestore builds on graph and network alone; core, sweep and serve sit on
# top of it (sweep.RunCtx and serve's /query check instances out of a
# corestore.Store).
layering:
	@bad=$$(go list -deps ./internal/corestore | grep -xE 'cycledetect/internal/(core|sweep|serve)'); \
	if [ -n "$$bad" ]; then echo "internal/corestore must not depend on:"; echo "$$bad"; exit 1; fi

check: fmt vet lint layering test

# serve starts the query-serving HTTP server (see cmd/serve and
# internal/serve; README "Query-serving layer" has a curl session).
serve:
	go run ./cmd/serve

# load runs the concurrent-load demo against an in-process server: M
# clients × one cached 256-node graph over real HTTP (examples/serve).
load:
	go run ./examples/serve

# bench runs the perf-tracking benchmarks and writes $(SNAPSHOT) — a JSON
# map of benchmark name -> {ns_op, bytes_per_op, allocs_per_op} — so future
# PRs have a committed trajectory to compare against (BENCH_1.json for PR 1,
# BENCH_2.json for this PR, BENCH_3.json for the next, ...). Every snapshot
# is taken at one P: allocs/op of the parallel serve benchmarks depends on
# GOMAXPROCS, so the host's CPU count must not leak into the gated numbers.
bench:
	GOMAXPROCS=1 go test ./... -run=NONE -bench '$(BENCH)' -benchmem | go run ./cmd/benchsnap -o $(SNAPSHOT)

# bench-compare diffs the two latest committed BENCH_*.json snapshots and
# prints per-benchmark ns/op and allocs/op deltas. Reporting only — it never
# fails the build.
bench-compare:
	go run ./cmd/benchdiff

# bench-gate is the blocking flavor: same report, but any benchmark whose
# allocs/op regressed more than $(ALLOCS_REGRESS_BUDGET)% between the two
# latest snapshots fails the target (and CI). ns/op deltas never gate.
bench-gate:
	go run ./cmd/benchdiff -max-allocs-regress $(ALLOCS_REGRESS_BUDGET)
