package oracle

import (
	"math"
	"testing"

	"oasis/internal/rng"
)

func TestDeterministic(t *testing.T) {
	o := NewDeterministic([]bool{true, false, true})
	if !o.Label(0) || o.Label(1) || !o.Label(2) {
		t.Error("deterministic oracle returned wrong labels")
	}
	// Labels must be stable across repeat queries.
	for i := 0; i < 10; i++ {
		if !o.Label(0) {
			t.Fatal("label changed across queries")
		}
	}
}

func TestBernoulliRates(t *testing.T) {
	probs := []float64{0, 0.25, 0.75, 1}
	o := NewBernoulli(probs, rng.New(1))
	const n = 50000
	for i, p := range probs {
		hits := 0
		for q := 0; q < n; q++ {
			if o.Label(i) {
				hits++
			}
		}
		rate := float64(hits) / n
		if math.Abs(rate-p) > 0.01 {
			t.Errorf("item %d rate = %v, want %v", i, rate, p)
		}
	}
}

func TestFromProbs(t *testing.T) {
	if _, ok := FromProbs([]float64{0, 1, 1}, rng.New(2)).(*Deterministic); !ok {
		t.Error("0/1 probs should give deterministic oracle")
	}
	if _, ok := FromProbs([]float64{0, 0.5}, rng.New(3)).(*Bernoulli); !ok {
		t.Error("fractional probs should give Bernoulli oracle")
	}
	det := FromProbs([]float64{0, 1}, rng.New(4))
	if det.Label(0) || !det.Label(1) {
		t.Error("FromProbs deterministic labels wrong")
	}
}
