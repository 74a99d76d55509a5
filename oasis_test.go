package oasis_test

import (
	"fmt"
	"math"
	"testing"

	"oasis"
	"oasis/internal/rng"
)

// syntheticScores builds an imbalanced score/prediction/truth triple with a
// known population F-measure.
func syntheticScores(n int, seed uint64) (scores []float64, preds, truth []bool, trueF float64) {
	r := rng.New(seed)
	scores = make([]float64, n)
	preds = make([]bool, n)
	truth = make([]bool, n)
	var tp, fp, fn float64
	for i := 0; i < n; i++ {
		var s float64
		if r.Bernoulli(0.04) {
			s = 0.4 + 0.6*r.Float64()
		} else {
			s = 0.35 * r.Float64()
		}
		scores[i] = s
		preds[i] = s > 0.6
		truth[i] = r.Bernoulli(s)
		switch {
		case truth[i] && preds[i]:
			tp++
		case !truth[i] && preds[i]:
			fp++
		case truth[i] && !preds[i]:
			fn++
		}
	}
	den := 0.5*(tp+fp) + 0.5*(tp+fn)
	trueF = tp / den
	return scores, preds, truth, trueF
}

func TestNewPoolValidation(t *testing.T) {
	if _, err := oasis.NewPool([]float64{1, 2}, []bool{true}, oasis.UncalibratedScores); err == nil {
		t.Error("expected length-mismatch error")
	}
	if _, err := oasis.NewPool(nil, nil, oasis.CalibratedScores); err == nil {
		t.Error("expected empty-pool error")
	}
	p, err := oasis.NewPool([]float64{0.1, 0.9}, []bool{false, true}, oasis.CalibratedScores)
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 2 || p.NumPredPositives() != 1 {
		t.Errorf("pool stats %d/%d", p.N(), p.NumPredPositives())
	}
}

func TestNewPoolCopiesInputs(t *testing.T) {
	scores := []float64{0.1, 0.9}
	preds := []bool{false, true}
	p, err := oasis.NewPool(scores, preds, oasis.CalibratedScores)
	if err != nil {
		t.Fatal(err)
	}
	scores[0] = 123 // caller mutation must not affect the pool
	if p.Internal().Scores[0] == 123 {
		t.Error("pool aliases caller slice")
	}
}

func TestSamplerEndToEnd(t *testing.T) {
	scores, preds, truth, trueF := syntheticScores(20000, 1)
	p, err := oasis.NewPool(scores, preds, oasis.CalibratedScores)
	if err != nil {
		t.Fatal(err)
	}
	s, err := oasis.NewSampler(p, oasis.Options{Strata: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.K() < 2 {
		t.Fatalf("K = %d", s.K())
	}
	if f0 := s.InitialEstimate(); f0 < 0 || f0 > 1 || math.IsNaN(f0) {
		t.Fatalf("initial estimate %v", f0)
	}
	res, err := s.Run(func(i int) bool { return truth[i] }, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if res.LabelsConsumed != 1500 {
		t.Errorf("labels consumed %d", res.LabelsConsumed)
	}
	if res.Iterations < res.LabelsConsumed {
		t.Errorf("iterations %d below labels %d", res.Iterations, res.LabelsConsumed)
	}
	if math.Abs(res.FMeasure-trueF) > 0.08 {
		t.Errorf("estimate %v, true %v", res.FMeasure, trueF)
	}
}

func TestUncalibratedPoolWorks(t *testing.T) {
	scores, preds, truth, trueF := syntheticScores(10000, 3)
	margins := make([]float64, len(scores))
	for i, s := range scores {
		margins[i] = 6 * (s - 0.6) // margin-like transform, threshold 0
	}
	p, err := oasis.NewPool(margins, preds, oasis.UncalibratedScores)
	if err != nil {
		t.Fatal(err)
	}
	s, err := oasis.NewSampler(p, oasis.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(func(i int) bool { return truth[i] }, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.FMeasure-trueF) > 0.1 {
		t.Errorf("uncalibrated estimate %v, true %v", res.FMeasure, trueF)
	}
}

func TestBaselinesRun(t *testing.T) {
	scores, preds, truth, trueF := syntheticScores(8000, 5)
	p, err := oasis.NewPool(scores, preds, oasis.CalibratedScores)
	if err != nil {
		t.Fatal(err)
	}
	type builder func() (*oasis.Method, error)
	builders := map[string]builder{
		"passive": func() (*oasis.Method, error) {
			return oasis.NewPassiveSampler(p, oasis.Options{Seed: 6})
		},
		"stratified": func() (*oasis.Method, error) {
			return oasis.NewStratifiedSampler(p, oasis.Options{Seed: 7})
		},
		"is": func() (*oasis.Method, error) {
			return oasis.NewISSampler(p, oasis.Options{Seed: 8})
		},
	}
	for name, build := range builders {
		m, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Name() == "" {
			t.Errorf("%s: empty name", name)
		}
		res, err := m.Run(func(i int) bool { return truth[i] }, 3000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.IsNaN(res.FMeasure) {
			t.Errorf("%s: undefined estimate after 3000 labels", name)
			continue
		}
		if math.Abs(res.FMeasure-trueF) > 0.15 {
			t.Errorf("%s: estimate %v, true %v", name, res.FMeasure, trueF)
		}
	}
}

func TestRecallOption(t *testing.T) {
	scores, preds, truth, _ := syntheticScores(10000, 9)
	p, err := oasis.NewPool(scores, preds, oasis.CalibratedScores)
	if err != nil {
		t.Fatal(err)
	}
	// True recall from ground truth.
	var tp, fn float64
	for i := range truth {
		if truth[i] && preds[i] {
			tp++
		}
		if truth[i] && !preds[i] {
			fn++
		}
	}
	trueRecall := tp / (tp + fn)
	s, err := oasis.NewSampler(p, oasis.Options{Recall: true, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(func(i int) bool { return truth[i] }, 2500)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.FMeasure-trueRecall) > 0.1 {
		t.Errorf("recall estimate %v, true %v", res.FMeasure, trueRecall)
	}
}

func TestPrecisionOption(t *testing.T) {
	scores, preds, truth, _ := syntheticScores(10000, 11)
	p, err := oasis.NewPool(scores, preds, oasis.CalibratedScores)
	if err != nil {
		t.Fatal(err)
	}
	var tp, fp float64
	for i := range truth {
		if truth[i] && preds[i] {
			tp++
		}
		if !truth[i] && preds[i] {
			fp++
		}
	}
	truePrec := tp / (tp + fp)
	s, err := oasis.NewSampler(p, oasis.Options{Alpha: 1, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(func(i int) bool { return truth[i] }, 2500)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.FMeasure-truePrec) > 0.1 {
		t.Errorf("precision estimate %v, true %v", res.FMeasure, truePrec)
	}
}

func TestEqualSizeStratifierOption(t *testing.T) {
	scores, preds, truth, trueF := syntheticScores(10000, 13)
	p, err := oasis.NewPool(scores, preds, oasis.CalibratedScores)
	if err != nil {
		t.Fatal(err)
	}
	s, err := oasis.NewSampler(p, oasis.Options{
		Stratifier: oasis.EqualSizeStratifier, Strata: 25, Seed: 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.K() != 25 {
		t.Errorf("equal-size K = %d", s.K())
	}
	res, err := s.Run(func(i int) bool { return truth[i] }, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.FMeasure-trueF) > 0.1 {
		t.Errorf("equal-size estimate %v, true %v", res.FMeasure, trueF)
	}
}

// TestStratificationMemBytes: a cached stratification costs at most 12 B
// per pair on a 1M-pair, K=30 pool — its one layout is an int32 permutation
// and its inverse (8 B per pair) plus O(K) — so the store's memory budget
// charges what the strata actually hold.
func TestStratificationMemBytes(t *testing.T) {
	const n = 1_000_000
	scores, preds, _, _ := syntheticScores(n, 21)
	p, err := oasis.NewPool(scores, preds, oasis.CalibratedScores)
	if err != nil {
		t.Fatal(err)
	}
	st, err := oasis.Stratify(p, oasis.Options{Strata: 30})
	if err != nil {
		t.Fatal(err)
	}
	if b := st.MemBytes(); b < 8*n || b > 12*n {
		t.Errorf("MemBytes %d = %.2f B/pair, want within [8, 12]", b, float64(b)/n)
	}
}

func TestStepAPI(t *testing.T) {
	scores, preds, truth, _ := syntheticScores(2000, 15)
	p, err := oasis.NewPool(scores, preds, oasis.CalibratedScores)
	if err != nil {
		t.Fatal(err)
	}
	s, err := oasis.NewSampler(p, oasis.Options{Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	b := oasis.NewBudgeted(func(i int) bool { return truth[i] }, 10)
	for !b.Exhausted() {
		if err := s.Step(b); err != nil {
			if err == oasis.ErrBudgetExhausted {
				break
			}
			t.Fatal(err)
		}
	}
	if b.Consumed() != 10 {
		t.Errorf("consumed %d", b.Consumed())
	}
	if math.IsNaN(s.Estimate()) {
		t.Error("estimate should fall back to initial guess")
	}
}

func TestRunRejectsBadBudget(t *testing.T) {
	scores, preds, _, _ := syntheticScores(100, 17)
	p, _ := oasis.NewPool(scores, preds, oasis.CalibratedScores)
	s, err := oasis.NewSampler(p, oasis.Options{Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(func(int) bool { return false }, 0); err == nil {
		t.Error("expected error on zero budget")
	}
}

func TestAsMethod(t *testing.T) {
	scores, preds, truth, _ := syntheticScores(3000, 19)
	p, _ := oasis.NewPool(scores, preds, oasis.CalibratedScores)
	s, err := oasis.NewSampler(p, oasis.Options{Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	m := s.AsMethod()
	if m.Name() != "OASIS" {
		t.Errorf("name %q", m.Name())
	}
	if _, err := m.Run(func(i int) bool { return truth[i] }, 50); err != nil {
		t.Fatal(err)
	}
}

// ExampleSampler demonstrates the quickstart flow on synthetic scores.
func ExampleSampler() {
	// Scores and predictions from an ER system; ground truth via an oracle.
	scores := []float64{0.95, 0.9, 0.85, 0.2, 0.15, 0.1, 0.05, 0.03}
	preds := []bool{true, true, true, false, false, false, false, false}
	truth := []bool{true, true, false, false, false, false, false, false}

	p, _ := oasis.NewPool(scores, preds, oasis.CalibratedScores)
	s, _ := oasis.NewSampler(p, oasis.Options{Strata: 3, Seed: 42})
	res, _ := s.Run(func(i int) bool { return truth[i] }, len(scores))
	fmt.Printf("labels=%d F in [0,1]: %v\n", res.LabelsConsumed, res.FMeasure >= 0 && res.FMeasure <= 1)
	// Output: labels=8 F in [0,1]: true
}
