# Development targets; CI runs the same commands (.github/workflows/ci.yml).

GO ?= go

.PHONY: build vet fmt-check test test-stress race bench bench-json bench-smoke fuzz-smoke metrics-smoke trace-smoke diag-smoke serve serve-metrics examples clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Gofmt drift gate: fails listing any file that gofmt would rewrite. CI runs
# it; run `gofmt -w .` to fix.
fmt-check:
	@files="$$(gofmt -l .)"; if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; \
	fi

# -shuffle=on randomises test (and subtest) execution order, so an
# order-dependent test fails loudly here instead of flaking later.
test: vet
	$(GO) test -race -shuffle=on ./...

# Stress gate for the concurrent subsystems: the session manager shards, the
# WAL lanes and the HTTP layer, raced three times in shuffled order.
test-stress:
	$(GO) test -race -count=3 -shuffle=on ./internal/session ./internal/wal ./internal/server

bench:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# Hot-path microbenchmarks: core draw/commit, public batched proposals (also
# with 80% of the pool labelled), the HTTP propose/labels round trip, the
# WAL durability tax, the parallel commit throughput of the sharded manager
# + WAL lanes, the inline vs content-addressed (pool store) session-create
# cost over a 1M-pair pool (including the warm zero-copy path), and the
# cold pool load (mmap vs streaming decode).
HOT_BENCH = BenchmarkDraw$$|BenchmarkDrawCommit$$|BenchmarkInstrumental$$|BenchmarkProposeBatch|BenchmarkProposeCommit$$|BenchmarkProposeNearExhaustion|BenchmarkServerPropose$$|BenchmarkCommitDurable|BenchmarkManagerParallel|BenchmarkServerProposeParallel|BenchmarkSessionCreate|BenchmarkPoolAcquire
HOT_BENCH_PKGS = ./internal/core ./internal/server ./internal/wal ./internal/poolstore .

# Run the hot-path microbenchmarks and append the results to the
# BENCH_core.json perf trajectory (label with OASIS_BENCH_LABEL). The
# benchmark run and the conversion are separate steps so a failing
# benchmark aborts the target instead of recording a partial run.
bench-json:
	$(GO) test -run '^$$' -bench '$(HOT_BENCH)' -benchmem $(HOT_BENCH_PKGS) > bench-json.out \
		|| { cat bench-json.out; rm -f bench-json.out; exit 1; }
	$(GO) run ./cmd/benchjson -out BENCH_core.json -label "$${OASIS_BENCH_LABEL:-dev}" < bench-json.out
	rm -f bench-json.out

# One-iteration smoke run of the hot-path microbenchmarks (CI).
bench-smoke:
	$(GO) test -run '^$$' -bench '$(HOT_BENCH)' -benchtime 1x $(HOT_BENCH_PKGS)

# Observability smoke (CI runs the same): boot the real binary, run a
# labelling workload, scrape /metrics, and fail on malformed exposition or
# zeroed hot-path counters. The strict text-format validator lives in
# internal/server; this drives it end to end through the built binary.
metrics-smoke:
	$(GO) test ./cmd/oasis-server -run '^TestMetricsSmokeEndToEnd$$' -count=1
	$(GO) test ./internal/server -run '^TestMetrics' -count=1

# Tracing smoke (CI runs the same): boot the real binary, force a traced
# create/propose/commit round via sampled traceparent headers, and fail
# unless /debug/traces/{id} returns span timelines covering the server,
# session, sampler, WAL and pool-store stages; then the in-process
# middleware round-trip and trace-ring race tests.
trace-smoke:
	$(GO) test ./cmd/oasis-server -run '^TestTraceSmokeEndToEnd$$' -count=1
	$(GO) test -race ./internal/server -run '^TestTracing' -count=1
	$(GO) test -race ./internal/trace -count=1

# Convergence-diagnostics smoke (CI runs the same): boot the real binary
# with a small diagnostics ring, run two sessions past the ring capacity,
# and fail unless /v1/sessions/{id}/diagnostics shows a monotone labels axis
# over a non-empty downsampled series and /debug/dashboard renders complete
# HTML with both sparklines per session; then the raced in-process
# scrape-while-commit and diag-ring unit tests.
diag-smoke:
	$(GO) test ./cmd/oasis-server -run '^TestDiagSmokeEndToEnd$$' -count=1
	$(GO) test -race ./internal/server -run '^TestDiagnostics|^TestDashboard|^TestSeededDegeneracy' -count=1
	$(GO) test -race ./internal/diag -count=1

# Short fuzz of the WAL replay path, the binary wire-protocol decoders and
# the pool decoder (upload and both cold-load paths). CI runs the same;
# -fuzz is single-package, hence one invocation per target.
# Minimization is capped: replay coverage is mildly nondeterministic (temp
# paths, map iteration), and the default 60s minimize budget stalls short
# smoke runs.
fuzz-smoke:
	$(GO) test ./internal/wal -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime 30s -fuzzminimizetime 10x
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzBinaryProtocol$$' -fuzztime 20s -fuzzminimizetime 10x
	$(GO) test ./internal/poolstore -run '^$$' -fuzz '^FuzzPoolDecode$$' -fuzztime 20s -fuzzminimizetime 10x

# Run the evaluation service with the durable write-ahead label journal
# (fsync always by default): kill -9 safe, acknowledged labels survive
# crashes and restarts.
serve:
	$(GO) run ./cmd/oasis-server -addr :8080 -wal oasis-wal -compact-every 10m

# Run the evaluation service with the WAL plus per-request access logging —
# scrape http://localhost:8080/metrics (always on; this target just adds
# the request log for eyeballing alongside the gauges).
serve-metrics:
	$(GO) run ./cmd/oasis-server -addr :8080 -wal oasis-wal -fsync always -access-log -slow-request 500ms

# Examples (CI runs the same): quickstart, dedup, noisyoracle and ecommerce
# drive the public Run, baseline and erbench API; serverclient starts the
# service in-process and labels through it with concurrent HTTP workers. Any
# non-zero exit fails the target.
examples:
	@for e in quickstart dedup noisyoracle ecommerce serverclient; do \
		echo "== examples/$$e"; \
		$(GO) run ./examples/$$e || exit 1; \
	done

clean:
	rm -rf bench-json.out oasis-wal
