package sampler

import (
	"math"
	"testing"

	"oasis/internal/oracle"
	"oasis/internal/pool"
	"oasis/internal/rng"
	"oasis/internal/strata"
)

// testPool builds an imbalanced calibrated pool with truth drawn once.
func testPool(n int, seed uint64) *pool.Pool {
	r := rng.New(seed)
	p := &pool.Pool{
		Name:          "sampler-test",
		Scores:        make([]float64, n),
		Preds:         make([]bool, n),
		TruthProb:     make([]float64, n),
		Probabilistic: true,
	}
	for i := 0; i < n; i++ {
		var s float64
		if r.Bernoulli(0.03) {
			s = 0.4 + 0.6*r.Float64()
		} else {
			s = 0.3 * r.Float64()
		}
		p.Scores[i] = s
		p.Preds[i] = s > 0.6
		if r.Bernoulli(s) {
			p.TruthProb[i] = 1
		}
	}
	return p
}

// runMethod makes `draws` draws of m, labelling each pair once through a
// run-local cache as Run does, and returns the final estimate. It counts
// draws rather than labels: these runs draw more often than the pool has
// pairs, which a label budget cannot express.
func runMethod(m Method, p *pool.Pool, draws int, oracleSeed uint64) float64 {
	o := oracle.FromProbs(p.TruthProb, rng.New(oracleSeed))
	labels := make(map[int]bool)
	for i := 0; i < draws; i++ {
		d := m.Draw()
		label, ok := labels[d.Pair]
		if !ok {
			label = o.Label(d.Pair)
			labels[d.Pair] = label
		}
		m.Commit(d, label)
	}
	return m.Estimate()
}

func TestPassiveConverges(t *testing.T) {
	p := testPool(5000, 1)
	trueF := p.TrueFMeasure(0.5)
	var errSum float64
	const runs = 5
	for run := 0; run < runs; run++ {
		m := NewPassive(p, 0.5, rng.New(10+uint64(run)))
		got := runMethod(m, p, 60000, 20+uint64(run))
		errSum += math.Abs(got - trueF)
	}
	if mean := errSum / runs; mean > 0.05 {
		t.Errorf("passive mean error %v (trueF %v)", mean, trueF)
	}
}

func TestPassiveUndefinedEarly(t *testing.T) {
	p := testPool(100000, 2)
	m := NewPassive(p, 0.5, rng.New(3))
	if !math.IsNaN(m.Estimate()) {
		t.Error("passive estimate should start undefined")
	}
	if m.Name() != "Passive" {
		t.Errorf("name %q", m.Name())
	}
}

func TestStratifiedConverges(t *testing.T) {
	p := testPool(5000, 4)
	trueF := p.TrueFMeasure(0.5)
	st, err := strata.CSF(p, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	var errSum float64
	const runs = 5
	for run := 0; run < runs; run++ {
		m, err := NewStratified(p, st, 0.5, rng.New(30+uint64(run)))
		if err != nil {
			t.Fatal(err)
		}
		got := runMethod(m, p, 60000, 40+uint64(run))
		errSum += math.Abs(got - trueF)
	}
	if mean := errSum / runs; mean > 0.05 {
		t.Errorf("stratified mean error %v (trueF %v)", mean, trueF)
	}
	st2, _ := strata.CSF(p, 30, 0)
	m, _ := NewStratified(p, st2, 0.5, rng.New(99))
	if m.Name() != "Stratified" {
		t.Errorf("name %q", m.Name())
	}
}

func TestISConverges(t *testing.T) {
	p := testPool(5000, 5)
	trueF := p.TrueFMeasure(0.5)
	for _, naive := range []bool{false, true} {
		var errSum float64
		const runs = 5
		for run := 0; run < runs; run++ {
			m, err := NewIS(p, ISConfig{Alpha: 0.5, Naive: naive}, rng.New(50+uint64(run)))
			if err != nil {
				t.Fatal(err)
			}
			got := runMethod(m, p, 20000, 60+uint64(run))
			errSum += math.Abs(got - trueF)
		}
		if mean := errSum / runs; mean > 0.05 {
			t.Errorf("IS(naive=%v) mean error %v (trueF %v)", naive, mean, trueF)
		}
	}
}

func TestISNaiveAndAliasSameDistribution(t *testing.T) {
	p := testPool(500, 6)
	a, err := NewIS(p, ISConfig{Alpha: 0.5, Naive: true}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewIS(p, ISConfig{Alpha: 0.5, Naive: false}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.probs, b.probs
	for i := range pa {
		if math.Abs(pa[i]-pb[i]) > 1e-15 {
			t.Fatalf("instrumental distributions differ at %d", i)
		}
	}
}

func TestISInstrumentalPositivity(t *testing.T) {
	p := testPool(2000, 8)
	m, err := NewIS(p, ISConfig{Alpha: 0.5, Epsilon: 0.01}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	probs := m.probs
	sum := 0.0
	minQ := math.Inf(1)
	for _, q := range probs {
		if q < minQ {
			minQ = q
		}
		sum += q
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("instrumental sums to %v", sum)
	}
	if minQ < 0.01/float64(p.N())-1e-15 {
		t.Errorf("min q %v below ε/N", minQ)
	}
}

func TestISOversamplesPredictedMatches(t *testing.T) {
	p := testPool(5000, 10)
	m, err := NewIS(p, ISConfig{Alpha: 0.5}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	probs := m.probs
	var predMass, nonPredMass float64
	var predCount, nonPredCount int
	for i, q := range probs {
		if p.Preds[i] {
			predMass += q
			predCount++
		} else {
			nonPredMass += q
			nonPredCount++
		}
	}
	if predCount == 0 || nonPredCount == 0 {
		t.Skip("degenerate pool")
	}
	perPred := predMass / float64(predCount)
	perNon := nonPredMass / float64(nonPredCount)
	if perPred <= perNon {
		t.Errorf("IS should bias toward predicted matches: %v vs %v", perPred, perNon)
	}
}

func TestScoreBasedF(t *testing.T) {
	p := &pool.Pool{
		Scores:        []float64{0.9, 0.8, 0.1, 0.2},
		Preds:         []bool{true, true, false, false},
		TruthProb:     []float64{1, 1, 0, 0},
		Probabilistic: true,
	}
	// num = 1.7, pred = 2, true = 2.0 → F = 1.7/2 = 0.85 at α=1/2.
	got := ScoreBasedF(p, 0.5)
	if math.Abs(got-0.85) > 1e-12 {
		t.Errorf("ScoreBasedF = %v", got)
	}
	empty := &pool.Pool{
		Scores:        []float64{0},
		Preds:         []bool{false},
		TruthProb:     []float64{0},
		Probabilistic: true,
	}
	if !math.IsNaN(ScoreBasedF(empty, 1)) {
		t.Error("expected NaN for zero-mass pool")
	}
}

func TestOptimalInstrumentalShape(t *testing.T) {
	// Predicted items receive mass even when g=0 (possible false positives);
	// unpredicted items receive mass ∝ F√g.
	if v := OptimalInstrumental(0.5, 0.5, 0, true, 1); v <= 0 {
		t.Errorf("predicted item with g=0 must keep mass, got %v", v)
	}
	if v := OptimalInstrumental(0.5, 0.5, 0, false, 1); v != 0 {
		t.Errorf("unpredicted item with g=0 must get zero optimal mass, got %v", v)
	}
	if v := OptimalInstrumental(0.5, 0, 0.5, false, 1); v != 0 {
		t.Errorf("F=0 kills unpredicted mass, got %v", v)
	}
	// Clamping out-of-range inputs.
	if v := OptimalInstrumental(0.5, 2, -1, false, 1); v != 0 || math.IsNaN(v) {
		t.Errorf("clamped call = %v", v)
	}
}

// TestISBudgetExhaustion checks that Run stops IS at its label budget and
// never asks the oracle for a label past it.
func TestISBudgetExhaustion(t *testing.T) {
	p := testPool(200, 12)
	m, err := NewIS(p, ISConfig{Alpha: 0.5}, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	o := &countingOracle{inner: oracle.FromProbs(p.TruthProb, rng.New(14))}
	labels, draws, err := Run(m, o, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if labels != 3 || len(o.asked) != 3 || draws < 3 {
		t.Errorf("labels %d, oracle queries %d, draws %d; want 3, 3, >= 3", labels, len(o.asked), draws)
	}
}

func TestMethodInterfaceCompliance(t *testing.T) {
	p := testPool(100, 15)
	st, err := strata.CSF(p, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	strat, err := NewStratified(p, st, 0.5, rng.New(16))
	if err != nil {
		t.Fatal(err)
	}
	is, err := NewIS(p, ISConfig{Alpha: 0.5}, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	var methods = []Method{NewPassive(p, 0.5, rng.New(18)), strat, is}
	for _, m := range methods {
		if m.Name() == "" {
			t.Error("empty method name")
		}
	}
}
