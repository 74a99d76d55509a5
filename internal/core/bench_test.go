package core

// Microbenchmarks for the sampler hot path: a draw (DrawStratum plus the
// uniform pair pick; steady state, no intervening commits — the
// batched-proposal case) and draw+commit (the fully adaptive sequential
// case, which rebuilds the instrumental distribution once per label). These
// are the numbers `make bench-json` tracks in BENCH_core.json.

import (
	"testing"

	"oasis/internal/rng"
	"oasis/internal/strata"
)

// benchSampler builds a K≈30 sampler over a synthetic imbalanced pool with
// a warmed-up posterior (200 committed labels), the regime the evaluation
// service lives in.
func benchSampler(b *testing.B, n int) *Sampler {
	b.Helper()
	p := makePool(n, 50, 1)
	s, err := strata.CSF(p, 30, 0)
	if err != nil {
		b.Fatal(err)
	}
	o, err := New(p, s, Config{Alpha: 0.5}, rng.New(7))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		d := draw(o)
		o.Commit(d, p.TruthProb[d.Pair] >= 0.5)
	}
	return o
}

// BenchmarkDraw measures one with-replacement draw with no intervening
// commits: the steady-state cost of ProposeBatch's inner loop. Target:
// amortized O(1) per draw and 0 allocs/op.
func BenchmarkDraw(b *testing.B) {
	o := benchSampler(b, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		draw(o)
	}
}

// BenchmarkDrawCommit measures the fully adaptive cycle: every draw is
// followed by a commit, so the instrumental distribution is rebuilt each
// iteration (O(K) amortized over one label, as in sequential Algorithm 3).
func BenchmarkDrawCommit(b *testing.B) {
	o := benchSampler(b, 100_000)
	preds := o.pool.TruthProb
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := draw(o)
		o.Commit(d, preds[d.Pair] >= 0.5)
	}
}

// BenchmarkInstrumental measures one full rebuild of the ε-greedy
// instrumental distribution (posterior means + Eqn. 12), the per-commit
// amortized cost behind BenchmarkDraw.
func BenchmarkInstrumental(b *testing.B) {
	o := benchSampler(b, 100_000)
	dst := make([]float64, o.K())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.computeV()
		copy(dst, o.v)
	}
}
