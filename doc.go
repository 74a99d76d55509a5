// Package oasis implements OASIS — Optimal Asymptotic Sequential Importance
// Sampling — for label-efficient evaluation of entity-resolution (ER)
// systems, reproducing Marchant & Rubinstein, "In Search of an Entity
// Resolution OASIS", PVLDB 10(11), 2017.
//
// # Problem
//
// Evaluating an ER system means estimating the F-measure (or precision or
// recall) of its predicted matching over a pool of record pairs, using a
// costly labelling oracle (e.g. a crowd). Class imbalance in ER is extreme —
// often worse than 1:1000 — so uniform ("passive") sampling wastes almost
// every label on obvious non-matches. OASIS samples adaptively: it
// stratifies the pool by similarity score, maintains a Beta posterior over
// each stratum's match probability, and at every step draws from an
// ε-greedy approximation of the variance-minimising instrumental
// distribution, reweighting the estimate to remain statistically consistent.
//
// # Quick start
//
//	p, err := oasis.NewPool(scores, predictions, oasis.CalibratedScores)
//	sampler, err := oasis.NewSampler(p, oasis.Options{Alpha: 0.5, Strata: 30, Seed: 1})
//	res, err := sampler.Run(oracleFunc, 1000) // oracleFunc(i) returns the true label of pair i
//	fmt.Println(res.FMeasure)
//
// Run is the paper's sequential Algorithm 3: draws with replacement, the
// oracle asked the first time a pair comes up (footnote 5) and every draw
// folded into the estimate. Baselines used in the paper's comparison
// (passive, proportional stratified, static importance sampling) are
// available through NewPassiveSampler, NewStratifiedSampler and
// NewISSampler, whose Run is the same loop; the full experimental testbed —
// synthetic versions of the six benchmark datasets, the ER pipeline and
// classifiers, and the error-curve harness — lives in the erbench
// subpackage and runs every paper experiment through that loop too.
//
// # Asynchronous labelling and the evaluation service
//
// Run suits in-process oracles; real crowds answer asynchronously and in
// batches. ProposeBatch draws a batch of distinct unlabelled pairs from the
// current instrumental distribution without consuming labels, and
// CommitLabel folds answers back into the posterior and the estimate as
// they arrive, in any order — the estimator is unchanged because each
// draw's importance weight is frozen at draw time. Run is this engine one
// proposal at a time. After 32 consecutive draws of labelled or
// outstanding pairs it draws the next proposal from the instrumental
// distribution restricted to proposable pairs, so it never stalls on a
// labelled pool. The service layer builds on this: internal/session keeps
// many concurrent evaluations alive behind a lease-based propose/commit
// protocol, and cmd/oasis-server exposes it over HTTP, either in memory or
// durably behind the write-ahead log (see the repository README for the API
// walkthrough and examples/serverclient for a runnable end-to-end demo).
//
// Labels are durable. The session layer is a deterministic state machine —
// every draw comes from an explicitly seeded stream and the instrumental
// distribution is a pure function of the labels committed so far — so
// internal/wal journals the operation sequence (create, propose,
// label-commit with its frozen weight terms, release, delete) to a
// segmented, CRC-checked write-ahead log before anything is acknowledged,
// and recovery replays it through the same code paths to land bit-for-bit
// on the pre-crash state: a kill-9'd oasis-server restarted with -wal
// continues the exact proposal sequence (TestCrashRecoveryEndToEnd). The
// WAL is the one durability path: a graceful restart recovers the same way,
// releasing in-flight leases so their workers propose again.
// Background compaction folds cold segments into a manager snapshot plus a
// trimmed tail, and the -fsync policy (per-record / interval / off) sets
// the durability/latency trade-off, measured by BenchmarkCommitDurable.
//
// Pools are shared, not copied. The serving workload is many annotators
// evaluating one candidate-pair pool, so internal/poolstore keeps a
// durable, content-addressed, reference-counted pool registry: a pool is
// uploaded once (POST /v1/pools, JSON or a compact binary columnar format
// with per-section CRC-32C), stored as an immutable fsync'd file named by
// the SHA-256 of its canonical encoding, and any number of sessions
// reference it by poolId — one read-only in-memory copy under a refcount,
// O(1) WAL create records and snapshots (the hash instead of the columns),
// and idle-sweep eviction plus DELETE for unreferenced pools. Inline
// configs are interned into the store transparently, replay resolves the
// hash back through it, and a missing or corrupt pool at recovery is a
// deterministic boot error, never a partial restore
// (TestReplayWithBrokenPoolFailsStop); BenchmarkSessionCreate tracks the
// inline-vs-poolref create cost over a 1M-pair pool.
//
// The service scales across cores by sharding: sessions are independent
// samplers, so the manager splits its session map into power-of-two shards
// (session-ID hash → shard, -shards, default derived from GOMAXPROCS) with
// per-shard locks and create barriers, and the WAL journals each shard to
// its own lane — its own segment stream, append lock and LSN sequence — so
// commit fsyncs only serialise within a shard and recovery replays lanes
// concurrently. Shard count changes which lock and lane serialise a
// session, never what the session does: TestShardedReplayEquivalence holds
// proposal sequences and estimates bit-for-bit identical across 1, 4 and 8
// shards, including through crash recovery. The lane format is WAL record
// version 2 (a shard tag and format version joined the record header, CRC
// covering both); v1 single-stream journals are refused untouched, and a
// build from commit 3d6227e or earlier upgrades them in place.
// BenchmarkManagerParallel and
// BenchmarkServerProposeParallel track the multi-worker commit throughput
// scaling with shard count.
//
// # Performance
//
// The draw/commit hot path is amortized O(1) per draw. The instrumental
// distribution v(t) depends only on the Beta posterior and the running
// estimate, which change exactly when a label is committed, so the sampler
// caches v(t) — together with a prepared inverse-CDF stratum sampler and the
// per-stratum importance weights — behind a dirty flag that only
// Commit/Restore set. A ProposeBatch(n) with no intervening commits
// therefore computes v once and pays O(log K) per draw with zero heap
// allocations, instead of the O(K) rebuild-validate-scan per draw of the
// sequential formulation. Equivalence is not approximate: the cached path
// draws bit-for-bit the same sequence as rebuilding v on every call (see
// TestGoldenSequence in internal/core).
//
// ProposeBatch is also rejection-free. Per-stratum proposability accounting
// (one 8-byte slot per pair) resolves every draw in O(1): draws of labelled
// pairs fold their cached label into the estimate immediately (the "free"
// draws of the paper's budget accounting), draws of outstanding pairs queue
// an extra weighted term, and fresh pairs are proposed. When labelled or
// outstanding pairs dominate the drawn strata, the remaining proposals are
// drawn directly from the instrumental distribution restricted to proposable
// pairs (with corrected importance weights), so batches are exactly the
// requested size while supply lasts and exhaustion is the typed ErrExhausted
// rather than a burned retry cap.
//
// The pool read path is zero-copy where the platform allows it. On
// linux/amd64 and linux/arm64 the store serves a pool's scores column
// straight off a read-only memory mapping of the immutable pool file — the
// v2 binary format places the column 8-byte-aligned at offset 24 exactly so
// it can be aliased as []float64 without copying — and the OS page cache,
// not the Go heap, governs residency. Every other platform (and every
// legacy v1 file) falls back to a streaming section-by-section decode
// through one reused 1 MiB buffer; a cross-check test holds the two paths
// byte-identical. Integrity work is paid once per open: the first load of a
// pool verifies the full SHA-256 content address, finiteness and padding,
// while warm reacquires after eviction recheck only the per-section CRCs.
// Stratification is cached in the store entry under the same refcount, so
// concurrent sessions over one pool share the strata instead of re-sorting
// a million scores each (BenchmarkSessionCreate/poolref-warm measures the
// steady-state create). The strata are one layout, an int32 permutation of
// the pool in stratum order and its inverse (8 bytes per pair), which every
// sampler over the pool reads in place. The -pool-mem-budget flag bounds resident bytes
// (heap columns + mappings + cached strata) with an LRU sweep of
// unreferenced pools; referenced pools are pinned, evictions are counted by
// reason in /metrics, and the README's "Memory & zero-copy" section has the
// full platform matrix and gauge guide.
//
// The hot-path microbenchmarks live in internal/core (BenchmarkDraw,
// BenchmarkDrawCommit, BenchmarkInstrumental), the package root
// (BenchmarkProposeBatch/{n=1,64,1024}, BenchmarkProposeCommit),
// internal/server (BenchmarkServerPropose), internal/wal
// (BenchmarkCommitDurable, the WAL durability tax per fsync policy) and
// internal/poolstore (BenchmarkPoolAcquire, cold load via mmap vs decode).
// `make bench-json` runs them and
// appends a labelled run to BENCH_core.json — the perf trajectory every
// change is judged against; `make bench-smoke` is the 1-iteration CI guard.
// The paper-scale experiment benchmarks in bench_test.go are scaled by the
// OASIS_BENCH_SCALE / OASIS_BENCH_RUNS / OASIS_BENCH_SEED environment
// variables, and `make bench-json` honours OASIS_BENCH_LABEL for the run
// label.
//
// The evaluation service is observable end to end: cmd/oasis-server serves
// Prometheus text exposition at GET /metrics (built on the dependency-free
// internal/obs package — atomic counters and fixed-bucket histograms with
// zero hot-path allocations), covering per-route HTTP latency, per-shard
// session lifecycle counters, WAL append/fsync latency and per-lane depth,
// pool-store residency, and per-session sampler health: the running
// F-measure estimate, its delta-method asymptotic variance, and the
// effective-sample-size ratio (Σw)²/(n·Σw²) whose decay toward zero is the
// weight-degeneracy signal OASIS's stratified refresh exists to prevent.
// A Sampler exposes the same diagnostics in-process via Health().
//
// Convergence is a trajectory, not a gauge, so every session also records a
// bounded time-series of estimator state (estimate, asymptotic variance,
// ESS ratio, labels, wall time) on each commit batch into a fixed-capacity
// ring (internal/diag) that deterministically downsamples itself — drop
// every other point, double the stride — so any label budget fits in O(1)
// memory; the series survives snapshots and WAL replay byte-for-byte.
// GET /v1/sessions/{id}/diagnostics serves it as JSON with per-stratum
// weight diagnostics (local ESS, Σw/Σw² moments, realised-vs-instrumental
// allocation skew), GET /debug/dashboard renders every live session as
// inline SVG sparklines with zero external dependencies, and configurable
// ESS-ratio/variance-growth alarms walk a session through
// ok/degraded/degenerate — exported as oasis_sampler_health_state, logged
// once per transition, and stamped on the committing request's trace. A
// Sampler exposes the per-stratum half in-process via StratumDiagnostics,
// and erbench.RunDiagnostics profiles trajectories on the paper datasets.
// Histogram buckets additionally carry OpenMetrics exemplars (the trace ID
// of the bucket's most recent sampled request) when scraped with
// Accept: application/openmetrics-text, linking metric anomalies straight
// to their traces.
//
// Aggregates say that a route is slow; traces say why one request was.
// internal/trace records, for a sampled fraction of requests (-trace-sample,
// or any request carrying a sampled W3C traceparent header), a span
// timeline across all five serving layers — HTTP handling, session
// shard-lock wait/hold, sampler propose/commit with dirty-flag v(t)
// rebuilds, WAL append vs fsync per lane, and pool-store acquire
// (mmap/decode) and strata-cache hits — with zero allocations when a
// request is unsampled. A lock-free ring retains the last N traces plus
// every slow or errored one, served at GET /debug/traces[/{id}]; request
// IDs, trace IDs and access-log lines share one random per-boot prefix,
// and -pprof adds matching goroutine labels (route, shard, lane) so CPU
// profiles attribute along the same dimensions as the spans.
//
// The propose/labels/estimate hot path also speaks a compact binary wire
// protocol (OBP1 — magic, type, length-prefixed payload, CRC-32C trailer,
// the pool codec's framing idiom), negotiated per request via
// Accept / Content-Type: application/x-oasis-bin with JSON as the default
// and the fallback; the server encodes and decodes through pooled buffers
// with zero hot-path allocations, and BenchmarkServerProposeParallel's
// shards=8-bin variant tracks the saving over JSON. The same routes sit
// behind admission control — a global and a per-session token bucket
// (429 + Retry-After) over a bounded in-flight gate with a timed queue
// (503 + X-Shed-Reason) — so overload sheds load in O(1) instead of
// collapsing into unbounded queueing; rejections are counted by reason in
// oasis_http_rejected_total and ops routes are never shed. The README's
// "Wire protocol & overload behavior" section has the frame layout and
// tuning flags.
//
// Every randomised component is seeded explicitly; identical seeds give
// bit-identical runs.
package oasis
