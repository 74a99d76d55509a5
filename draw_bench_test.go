package oasis

// Microbenchmarks for the model's hot path: a draw (drawStratum plus the
// uniform pair pick; steady state, no intervening commits — the
// batched-proposal case) and draw+commit (the fully adaptive sequential
// case, which rebuilds the instrumental distribution once per label), and
// for the stratification a cold session create pays before either. These
// are the numbers `make bench-json` tracks in BENCH_core.json.

import (
	"testing"

	"oasis/internal/rng"
)

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

// stratifyPool builds a 1M-pair pool for BenchmarkStratify. The calibrated
// pool has session-churn's shape: about 2% of the pairs score high, the rest
// near zero, and a pair is predicted a match at s ≥ 0.5. The uncalibrated
// pool's scores are uniform-squared mapped to [−4, 4] around the threshold
// 0, so the sign of s − τ and the prediction change from pair to pair in
// pool order.
func stratifyPool(b *testing.B, calibrated bool) *Pool {
	b.Helper()
	const n = 1 << 20
	r := rng.New(11)
	scores, preds := make([]float64, n), make([]bool, n)
	for i := range scores {
		u := r.Float64()
		switch {
		case !calibrated:
			scores[i] = 8*u*u - 4
			preds[i] = scores[i] >= 0
		case r.Float64() < 0.02:
			scores[i] = 0.25 + 0.75*(1-u*u)
			preds[i] = scores[i] >= 0.5
		default:
			scores[i] = 0.3 * u * u * u
		}
	}
	kind := UncalibratedScores
	if calibrated {
		kind = CalibratedScores
	}
	p, err := NewPool(scores, preds, kind)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkStratify measures Stratify at K = 30 on a 1M-pair pool: the CSF
// histogram, the cut and the stratum layout with its per-stratum means, the
// stage a cold session create pays before it builds its sampler.
func BenchmarkStratify(b *testing.B) {
	for _, c := range []struct {
		name       string
		calibrated bool
	}{{"calibrated", true}, {"uncalibrated", false}} {
		b.Run(c.name, func(b *testing.B) {
			p := stratifyPool(b, c.calibrated)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Stratify(p, Options{Strata: 30}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
