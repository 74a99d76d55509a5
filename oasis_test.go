package oasis_test

import (
	"errors"
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

// TestStepAPI drives the sampler one label at a time from the caller's own
// loop, the way an integration without an OracleFunc does: propose one pair,
// label it, commit it.
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
	for s.LabelsCommitted() < 10 {
		batch, err := s.ProposeBatch(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.CommitLabel(batch[0], truth[batch[0]]); err != nil {
			t.Fatal(err)
		}
	}
	if s.LabelsCommitted() != 10 {
		t.Errorf("committed %d", s.LabelsCommitted())
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

// TestRunKeepsLabels: the labels Run buys are the sampler's committed labels,
// so the counters and the snapshot see them and later proposals never buy
// one again. A second Run continues the first, and a Run leaves outstanding
// proposals outstanding and committable.
func TestRunKeepsLabels(t *testing.T) {
	scores, preds, truth, _ := syntheticScores(3000, 19)
	p, err := oasis.NewPool(scores, preds, oasis.CalibratedScores)
	if err != nil {
		t.Fatal(err)
	}
	s, err := oasis.NewSampler(p, oasis.Options{Strata: 10, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	bought := make(map[int]bool)
	oracle := func(i int) bool {
		if bought[i] {
			t.Fatalf("the oracle was asked again for pair %d", i)
		}
		bought[i] = true
		return truth[i]
	}
	res, err := s.Run(oracle, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.LabelsConsumed != 50 || len(bought) != 50 {
		t.Fatalf("Run consumed %d labels over %d oracle pairs, want 50", res.LabelsConsumed, len(bought))
	}
	if res.Iterations < 50 || len(s.Pending()) != 0 {
		t.Fatalf("Run made %d draws and left %d proposals outstanding; want ≥ 50 and none", res.Iterations, len(s.Pending()))
	}
	if got := s.LabelsCommitted(); got != 50 {
		t.Fatalf("LabelsCommitted() = %d after Run, want 50", got)
	}
	st := s.State()
	if len(st.Labels) != 50 {
		t.Fatalf("State() holds %d labels after Run, want 50", len(st.Labels))
	}
	for pair := range bought {
		if l, ok := st.Labels[pair]; !ok || l != truth[pair] {
			t.Fatalf("State() label of bought pair %d = %v, %v", pair, l, ok)
		}
	}
	if res, err := s.Run(oracle, 10); err != nil || res.LabelsConsumed != 10 {
		t.Fatalf("second Run: %+v, %v; want 10 labels", res, err)
	}
	if got := s.LabelsCommitted(); got != 60 || len(bought) != 60 {
		t.Fatalf("after a second Run: %d committed over %d oracle pairs, want 60", got, len(bought))
	}

	for round := 0; round < 100; round++ {
		batch, err := s.ProposeBatch(8)
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range batch {
			if bought[pair] {
				t.Fatalf("round %d: ProposeBatch re-proposed pair %d that Run bought", round, pair)
			}
			if err := s.CommitLabel(pair, truth[pair]); err != nil {
				t.Fatal(err)
			}
		}
	}

	fresh, err := oasis.NewSampler(p, oasis.Options{Strata: 10, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	out, err := fresh.ProposeBatch(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err = fresh.Run(func(i int) bool {
		if i == out[0] {
			t.Fatalf("Run asked for outstanding pair %d", i)
		}
		return truth[i]
	}, 10)
	if err != nil || res.LabelsConsumed != 10 {
		t.Fatalf("Run with an outstanding proposal: %+v, %v; want 10 labels", res, err)
	}
	if pending := fresh.Pending(); len(pending) != 1 || pending[0] != out[0] {
		t.Fatalf("pending after Run = %v, want [%d]", pending, out[0])
	}
	if err := fresh.CommitLabel(out[0], truth[out[0]]); err != nil {
		t.Fatalf("commit of the proposal made before Run: %v", err)
	}
	if got := fresh.LabelsCommitted(); got != 11 {
		t.Fatalf("LabelsCommitted() = %d, want 11", got)
	}
}

// TestRunNeverStalls: Run reaches its budget when v(t) sits on labelled
// pairs, and a budget above the proposable supply labels every proposable
// pair and returns. α = 1 puts all but ε of v(t) on the few predicted
// matches, so once those are labelled nearly every with-replacement draw
// is a free one.
func TestRunNeverStalls(t *testing.T) {
	scores, preds, truth, _ := syntheticScores(3000, 23)
	p, err := oasis.NewPool(scores, preds, oasis.CalibratedScores)
	if err != nil {
		t.Fatal(err)
	}
	if n := p.NumPredPositives(); n > 100 {
		t.Fatalf("%d predicted matches; the case needs few", n)
	}
	oracle := func(i int) bool { return truth[i] }
	s, err := oasis.NewSampler(p, oasis.Options{Alpha: 1, Strata: 10, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(oracle, 400)
	if err != nil {
		t.Fatal(err)
	}
	if res.LabelsConsumed != 400 || res.Iterations <= res.LabelsConsumed {
		t.Fatalf("α = 1 run: %d labels in %d draws, want 400 labels and free draws", res.LabelsConsumed, res.Iterations)
	}

	small, err := oasis.NewPool(scores[:300], preds[:300], oasis.CalibratedScores)
	if err != nil {
		t.Fatal(err)
	}
	s, err = oasis.NewSampler(small, oasis.Options{Alpha: 1, Strata: 10, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.ProposeBatch(3)
	if err != nil {
		t.Fatal(err)
	}
	res, err = s.Run(oracle, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.LabelsConsumed != 297 || s.LabelsCommitted() != 297 || len(s.Pending()) != 3 {
		t.Fatalf("budget above supply: %d labels, %d committed, %d pending; want 297, 297, 3",
			res.LabelsConsumed, s.LabelsCommitted(), len(s.Pending()))
	}
	if _, err := s.ProposeBatch(1); !errors.Is(err, oasis.ErrExhausted) {
		t.Fatalf("propose after Run labelled the supply: err = %v, want ErrExhausted", err)
	}
	for _, pair := range out {
		if err := s.CommitLabel(pair, truth[pair]); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.LabelsCommitted(); got != 300 {
		t.Fatalf("LabelsCommitted() = %d, want the whole pool", got)
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
