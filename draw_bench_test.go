package oasis

// Microbenchmarks for the model's hot path: a draw (drawStratum plus the
// uniform pair pick; steady state, no intervening commits — the
// batched-proposal case) and draw+commit (the fully adaptive sequential
// case, which rebuilds the instrumental distribution once per label). These
// are the numbers `make bench-json` tracks in BENCH_core.json.

import "testing"

// benchModel builds a K≈30 sampler over a synthetic imbalanced pool with
// a warmed-up posterior (200 committed labels), the regime the evaluation
// service lives in. It returns the pool's truth probabilities with it.
func benchModel(b *testing.B, n int) (*Sampler, []float64) {
	b.Helper()
	p := makePool(n, 50, 1)
	o := newOASIS(b, p, 30, Options{Alpha: 0.5}, 7)
	for i := 0; i < 200; i++ {
		d := draw(o)
		commit(o, d, p.TruthProb[d.Pair] >= 0.5)
	}
	return o, p.TruthProb
}

// BenchmarkDraw measures one with-replacement draw with no intervening
// commits: the steady-state cost of ProposeBatch's inner loop. Target:
// amortized O(1) per draw and 0 allocs/op.
func BenchmarkDraw(b *testing.B) {
	o, _ := benchModel(b, 100_000)
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
	o, truth := benchModel(b, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := draw(o)
		commit(o, d, truth[d.Pair] >= 0.5)
	}
}

// BenchmarkInstrumental measures one full rebuild of the ε-greedy
// instrumental distribution (posterior means + Eqn. 12), the per-commit
// amortized cost behind BenchmarkDraw.
func BenchmarkInstrumental(b *testing.B) {
	o, _ := benchModel(b, 100_000)
	dst := make([]float64, o.K())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.computeV()
		copy(dst, o.v)
	}
}
