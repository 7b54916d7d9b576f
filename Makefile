# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race qbench-check cover cover-gate bench bench-json bench-gate profile reproduce examples clean check vet fmtcheck fuzz-smoke crashtest cert-smoke chaos cluster-smoke

all: build test

# check is the CI / pre-merge gate: build, vet, formatting, tests, the
# race detector over the concurrent packages, and the benchmark module.
check: build vet fmtcheck test race qbench-check

build:
	$(GO) build ./...
	$(GO) vet ./...

vet:
	$(GO) vet ./...

fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt required on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/parallel/ ./internal/core/ ./quantile/ ./internal/window/ ./internal/serve/ ./internal/wal/ ./internal/faultfs/ ./internal/faultnet/ ./internal/cluster/

# qbench-check vets and tests the benchmark module (its own go.mod under
# qbench/), so an API change that breaks the benchmark fails here rather
# than only in the benchmark pipeline. go vet writes no binary.
qbench-check:
	cd qbench && $(GO) vet ./... && $(GO) test ./...

# crashtest runs the fault-injection harness under the race detector: seeded
# kill-and-restart lives (ENOSPC, short writes, failed fsyncs, hard crashes)
# plus the degraded-mode lifecycle.
crashtest:
	$(GO) test -race -count=1 -run 'TestCrashRecoveryNoAckedLoss|TestDegradedModeServing|TestCheckpointDurableUnderCrash|TestWALRecoveryRealFS' ./internal/serve/

# chaos runs the exactly-once binary-ingest harnesses under the race
# detector: TestChaosExactlyOnce (each seed an independent deterministic
# schedule of network faults, hard server kills with torn-page power loss,
# and graceful restarts, with a retrying sessioned client streaming
# throughout), TestChaosKillWithBacklog (kills landing while acked batches
# are still queued in the async apply pipeline, unapplied), and the cluster
# rows: TestChaosClusterShardKillExactlyOnce (shard nodes hard-killed
# mid-stream under sessioned clients, verified through a fresh coordinator)
# and TestChaosClusterQueryDegraded (the partial-answer degradation
# contract under seeded node deaths). The differential proof per seed: the
# recovered state holds every acknowledged value exactly once.
CHAOS_SEEDS ?= 40
chaos:
	CHAOS_SEEDS=$(CHAOS_SEEDS) $(GO) test -race -count=1 -run 'TestChaos' ./internal/serve/ ./internal/cluster/

# fuzz-smoke gives every fuzz target a short budget; CI runs it after check.
# The targets come from `go test -list` over the module's packages, so a new
# Fuzz function is smoked without being listed here.
FUZZTIME ?= 10s
fuzz-smoke:
	@set -e; list=$$($(GO) test -list '^Fuzz' ./...); \
	targets=$$(printf '%s\n' "$$list" | awk '/^Fuzz/ {f[n++] = $$1; next} /^ok/ {for (i = 0; i < n; i++) print $$2 ":" f[i]; n = 0}'); \
	if [ -z "$$targets" ]; then echo "fuzz-smoke: no fuzz targets found"; exit 1; fi; \
	for t in $$targets; do \
		echo "fuzz-smoke: $${t##*:} ($${t%%:*})"; \
		$(GO) test -run='^$$' -fuzz="^$${t##*:}\$$" -fuzztime=$(FUZZTIME) $${t%%:*}; \
	done

# cert-smoke runs the guarantee-certification sweep at the CI budget: every
# policy x order x estimator stack x backend (mrl, kll, weighted) x
# front-end (including the multi-node cluster axis) is checked against the
# exact oracle, and the certifier's own detection machinery is
# mutation-tested — on the mrl, kll and cluster axes — via -selftest.
cert-smoke:
	$(GO) run ./cmd/quantilecert -seed 1 -budget small
	$(GO) run ./cmd/quantilecert -seed 1 -budget small -selftest

# cluster-smoke is the end-to-end sharded-cluster smoke: 3 storage nodes +
# a scatter/gather coordinator, quantileload spreading sessioned binary
# ingest across all nodes, and a certified (bounded, non-partial) merged
# answer from the coordinator.
cluster-smoke:
	sh scripts/cluster-smoke.sh

cover:
	$(GO) test -cover ./...

# cover-gate enforces statement-coverage floors on the guarantee-critical
# packages. Floors sit a few points under current coverage (core 94%,
# cert 80%, kll 92%, weighted 90%) so incidental drift passes but a dropped
# test layer fails.
COVER_FLOOR_CORE ?= 90
COVER_FLOOR_CERT ?= 75
COVER_FLOOR_KLL ?= 85
COVER_FLOOR_WEIGHTED ?= 85
cover-gate:
	@set -e; for spec in "./internal/core/:$(COVER_FLOOR_CORE)" "./internal/cert/:$(COVER_FLOOR_CERT)" "./internal/kll/:$(COVER_FLOOR_KLL)" "./internal/weighted/:$(COVER_FLOOR_WEIGHTED)"; do \
		pkg=$${spec%%:*}; floor=$${spec##*:}; \
		pct=$$($(GO) test -cover $$pkg | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "cover-gate: no coverage figure for $$pkg"; exit 1; fi; \
		echo "cover-gate: $$pkg $$pct% (floor $$floor%)"; \
		if [ "$$(awk -v p=$$pct -v f=$$floor 'BEGIN{print (p>=f)?1:0}')" != "1" ]; then \
			echo "cover-gate: $$pkg coverage $$pct% fell below floor $$floor%"; exit 1; fi; \
	done

bench:
	$(GO) test -bench=. -benchmem ./...

# The gated hot-path benchmarks: 6 samples each so the gate compares medians.
BENCH_GATED = BenchmarkAdd$$|BenchmarkAddBatch$$|BenchmarkQuantiles$$|BenchmarkHTTPIngest$$|BenchmarkHTTPIngestBinary$$|BenchmarkRecoveryReplay$$
BENCH_COUNT ?= 6

# The packages whose hot paths the bench gate tracks: the MRL core, the
# KLL backend (its sub-benchmarks carry a kll/ prefix, so names never clash),
# and the serve ingest carriers (JSON vs binary) plus WAL-replay recovery.
BENCH_PKGS = ./internal/core/ ./internal/kll/ ./internal/serve/

# bench-json refreshes the committed perf baseline results/BENCH_9.json.
bench-json:
	mkdir -p results
	$(GO) test -run='^$$' -bench='$(BENCH_GATED)' -benchmem -count=$(BENCH_COUNT) $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchjson parse -o results/BENCH_9.json
	@echo "wrote results/BENCH_9.json"

# bench-gate re-runs the gated benchmarks and fails on a >15% median ns/op
# regression against the committed baseline (same check CI runs).
bench-gate:
	$(GO) test -run='^$$' -bench='$(BENCH_GATED)' -benchmem -count=$(BENCH_COUNT) $(BENCH_PKGS) > /tmp/bench_new.txt
	$(GO) run ./cmd/benchjson gate -baseline results/BENCH_9.json -new /tmp/bench_new.txt \
		-match '^Benchmark(Add|AddBatch|Quantiles|HTTPIngest|HTTPIngestBinary)/|^BenchmarkRecoveryReplay' -max-regress-pct 15

# profile captures CPU and allocation pprof profiles of the binary ingest
# hot path (frame decode -> WAL append -> apply-queue handoff -> sketch) into
# results/; inspect with `go tool pprof results/ingest_cpu.pprof`.
profile:
	mkdir -p results
	$(GO) test -run='^$$' -bench='BenchmarkHTTPIngestBinary$$' -benchtime=3s \
		-cpuprofile results/ingest_cpu.pprof -memprofile results/ingest_mem.pprof \
		-o results/serve_bench.test ./internal/serve/
	@echo "wrote results/ingest_cpu.pprof results/ingest_mem.pprof (binary: results/serve_bench.test)"

# Regenerate every table and figure of the paper into results/.
reproduce:
	mkdir -p results
	$(GO) run ./cmd/tables -table 1   > results/table1.txt
	$(GO) run ./cmd/tables -table 2   > results/table2.txt
	$(GO) run ./cmd/simulate          > results/table3.txt
	$(GO) run ./cmd/figures -figure 2 > results/figure2.txt
	$(GO) run ./cmd/figures -figure 3 > results/figure3.txt
	$(GO) run ./cmd/figures -figure 4 > results/figure4.txt
	$(GO) run ./cmd/figures -figure 7 > results/figure7.txt
	$(GO) run ./cmd/figures -figure 8 > results/figure8.txt
	$(GO) run ./cmd/sweep -n 1e6      > results/sweep.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/histogram
	$(GO) run ./examples/partitioner
	$(GO) run ./examples/parallel
	$(GO) run ./examples/concurrent
	$(GO) run ./examples/groupby
	$(GO) run ./examples/multicolumn
	$(GO) run ./examples/monitoring
	$(GO) run ./examples/quantiled

clean:
	rm -f test_output.txt bench_output.txt
