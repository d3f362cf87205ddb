GO ?= go

.PHONY: verify build vet fmtcheck test test-serial race bench-smoke bench bench-allocs bench-json benchdiff ab snapshot-roundtrip fuzz-short examples clean

# The tier-1 gate: everything CI runs.
verify: build vet fmtcheck test test-serial race bench-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt gating: fail when any file needs reformatting.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt -l found unformatted files:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# Single-proc leg: the batch executor's worker pool and Serve coalescing
# must behave identically when the runtime offers no parallelism
# (degenerate pool sizes, inline sequential paths).
# -count=1 because the test cache does not key on GOMAXPROCS.
test-serial:
	GOMAXPROCS=1 $(GO) test -count=1 ./internal/engine ./internal/kernel

# Race-check the concurrent machinery: the sharded execution layer, the
# dynamic mutation path, the async Serve stream, the planner's
# composite indexes (incl. the Stats latency counters batch workers hit),
# and the adaptive replanning loop's concurrent replan-and-swap churn.
race:
	$(GO) test -race ./internal/engine -run 'Shard|Serve|Batch|Dynamic|Planner|Planned|Stats|Adaptive|Replan|Observe'

# The benchmark module's smoke test: every perfbench workload at 2%
# size, untraced and traced, checked against its independent brute
# oracle (NN≠0 bit-exact, π and E[d] within 1e-12). perfbench is a
# module of its own, so the root `go test ./...` does not reach it.
bench-smoke:
	cd perfbench && $(GO) test ./...

# Engine benchmarks: parallel batch vs sequential, sharded vs unsharded.
bench:
	$(GO) test ./internal/engine -run xxx \
		-bench 'EngineBatch|EngineSequential|ShardedBatch|UnshardedBatch' -benchtime 5x

# Zero-alloc gate for the flat-kernel query path, the batch executor,
# and the adaptive observation path: the E16/E17/E21 single-query
# benchmarks drive QueryNonzeroInto, the E23 benchmark drives
# BatchNonzeroInto, and the E24 benchmark drives QueryNonzeroInto with
# the adaptive loop's windowed observation enabled — all with pooled
# scratch, reporting allocs/op; any nonzero steady-state figure fails
# the target (the one-time pool fill amortizes to 0 over the fixed
# iteration count). So does a family in ALLOC_BENCHES that printed no
# allocs/op line (a renamed benchmark must not pass by matching nothing),
# and a failing `go test`.
ALLOC_BENCHES = SingleNonzero E23_BatchDedup E24_AdaptiveObserve
bench-allocs:
	@pat="$$(echo $(ALLOC_BENCHES) | tr ' ' '|')"; \
	out="$$($(GO) test . -run xxx -bench "$$pat" -benchtime 200x)" || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	for fam in $(ALLOC_BENCHES); do \
		echo "$$out" | grep "^Benchmark[^ ]*$$fam" | grep -q 'allocs/op' || { \
			echo "bench-allocs: no allocs/op line from a $$fam benchmark"; exit 1; }; \
	done; \
	bad="$$(echo "$$out" | awk '/allocs\/op/ && $$(NF-1)+0 != 0')"; \
	if [ -n "$$bad" ]; then \
		echo "bench-allocs: query path allocates:"; echo "$$bad"; exit 1; fi

# Snapshot round-trip gate: build an index, write its binary snapshot,
# restore it through unn.OpenSnapshot, and require bit-identical
# answers plus an identical Explain plan (DESIGN.md §9).
snapshot-roundtrip:
	$(GO) test . -run TestSnapshotRoundTripGate -count=1 -v

# Short fuzz pass over the decode/parity surfaces with seeded corpora:
# the flat-kernel vs reference-path parity fuzzer, the multi-query
# AppendNonzeroTile vs scalar AppendNonzero parity fuzzer, and the
# snapshot container decoder
# (which must reject arbitrary corruption with an error, never a panic
# or an attacker-sized allocation).
fuzz-short:
	$(GO) test ./internal/kernel -run xxx -fuzz FuzzKernelParity -fuzztime 30s
	$(GO) test ./internal/kernel -run xxx -fuzz FuzzTileParity -fuzztime 30s
	$(GO) test ./internal/engine -run xxx -fuzz FuzzSnapshotDecode -fuzztime 30s

# Machine-readable perf trajectory: one JSON record per backend/size
# (E16) plus the shard-scaling (E17), streaming-mutation (E18),
# planner-vs-auto (E19), mutation-batching (E20), snapshot (E21),
# top-k (E22), batch-dedup (E23) and adaptive-replanning (E24) sweeps.
bench-json:
	$(GO) run ./cmd/unnbench -quick -json BENCH_engine.json >/dev/null

# Compare the fresh BENCH_engine.json against a previous run's artifact
# (OLD=path, fetched by CI from the last uploaded BENCH_engine), warning
# on >20% regressions in the E17–E23 throughput metrics — and, within
# the fresh file, on the E19 planner dropping below the rule-based
# auto, on E21 snapshot restore dropping below 10× the cold build, on
# snapshot parity breaking, on an E22 top-k query costing more than
# 1.5× its own configuration's π baseline, and on the E23 batch
# executor dropping below 1.5× a per-query loop on the hot workload or
# breaking batch parity.
OLD ?= prev/BENCH_engine.json
benchdiff:
	@if [ -f "$(OLD)" ]; then \
		$(GO) run ./cmd/benchdiff -old "$(OLD)" -new BENCH_engine.json; \
	else \
		echo "benchdiff: no previous artifact at $(OLD); skipping"; \
	fi

# Interleaved A/B of the repository benchmark: N pairs of perfbench
# runs of workload W, revision OLD against the working tree, alternating
# which side runs first; prints median, quartiles and wins per
# end-to-end metric (bench/ab.sh). Example:
#   make ab OLD=HEAD~1 W=uniq N=10
W ?= uniq
N ?= 10
SEED ?= 1001
SECS ?= 30
ab:
	bash bench/ab.sh "$(OLD)" "$(W)" "$(N)" "$(SEED)" "$(SECS)"

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/semantics
	$(GO) run ./examples/sensorfield
	$(GO) run ./examples/mobiledata
	$(GO) run ./examples/streaming

clean:
	$(GO) clean ./...
