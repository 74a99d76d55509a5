package experiment

import (
	"math"
	"testing"

	"oasis/internal/core"
	"oasis/internal/oracle"
	"oasis/internal/pool"
	"oasis/internal/rng"
	"oasis/internal/sampler"
	"oasis/internal/strata"
)

func testPool(n int, seed uint64) *pool.Pool {
	r := rng.New(seed)
	p := &pool.Pool{
		Name:          "exp-test",
		Scores:        make([]float64, n),
		Preds:         make([]bool, n),
		TruthProb:     make([]float64, n),
		Probabilistic: true,
	}
	for i := 0; i < n; i++ {
		var s float64
		if r.Bernoulli(0.05) {
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

func passiveFactory(p *pool.Pool, alpha float64) Factory {
	return Factory{
		Name: "Passive",
		New: func(seed uint64) (sampler.Method, error) {
			return sampler.NewPassive(p, alpha, rng.New(seed)), nil
		},
	}
}

func oasisFactory(t *testing.T, p *pool.Pool, k int, alpha float64) Factory {
	t.Helper()
	s, err := strata.CSF(p, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	return Factory{
		Name: "OASIS",
		New: func(seed uint64) (sampler.Method, error) {
			return core.New(p, s, core.Config{Alpha: alpha}, rng.New(seed))
		},
	}
}

func TestLinearGrid(t *testing.T) {
	g := LinearGrid(100, 10)
	if len(g) != 10 || g[0] != 10 || g[9] != 100 {
		t.Errorf("grid = %v", g)
	}
	g = LinearGrid(5, 10) // points capped at budget
	if len(g) != 5 || g[0] != 1 || g[4] != 5 {
		t.Errorf("capped grid = %v", g)
	}
	if LinearGrid(0, 10) != nil {
		t.Error("zero budget should give nil grid")
	}
	// Strictly increasing, no duplicates.
	g = LinearGrid(1000, 50)
	for i := 1; i < len(g); i++ {
		if g[i] <= g[i-1] {
			t.Fatalf("grid not increasing at %d: %v", i, g)
		}
	}
}

func TestRunOneTrajectory(t *testing.T) {
	p := testPool(2000, 1)
	m := sampler.NewPassive(p, 0.5, rng.New(2))
	o := oracle.FromProbs(p.TruthProb, rng.New(3))
	checkpoints := []int{10, 50, 100}
	res, err := RunOne(m, o, 100, checkpoints)
	if err != nil {
		t.Fatal(err)
	}
	if res.LabelsConsumed != 100 {
		t.Errorf("consumed %d", res.LabelsConsumed)
	}
	if res.Iterations < 100 {
		t.Errorf("iterations %d < labels consumed", res.Iterations)
	}
	if len(res.Estimates) != 3 {
		t.Fatalf("estimates %d", len(res.Estimates))
	}
	// Later checkpoints must be recorded whenever earlier ones are defined.
	if !math.IsNaN(res.Estimates[0]) && math.IsNaN(res.Estimates[2]) {
		t.Error("checkpoint 100 missing despite full consumption")
	}
}

func TestRunAggregation(t *testing.T) {
	p := testPool(5000, 4)
	cfg := Config{Budget: 300, Runs: 20, BaseSeed: 10}
	curves, err := Run(passiveFactory(p, 0.5), p, 0.5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if curves.Runs != 20 {
		t.Errorf("runs %d", curves.Runs)
	}
	if len(curves.Checkpoints) == 0 {
		t.Fatal("no checkpoints")
	}
	last := len(curves.Checkpoints) - 1
	if curves.DefinedFrac[last] < 0.9 {
		t.Errorf("defined fraction at end = %v", curves.DefinedFrac[last])
	}
	if math.IsNaN(curves.MeanAbsErr[last]) || curves.MeanAbsErr[last] > 0.5 {
		t.Errorf("final abs err %v", curves.MeanAbsErr[last])
	}
	if curves.MeanIterations < float64(cfg.Budget) {
		t.Errorf("mean iterations %v below budget", curves.MeanIterations)
	}
}

func TestRunDeterministic(t *testing.T) {
	p := testPool(3000, 5)
	cfg := Config{Budget: 200, Runs: 8, BaseSeed: 42, Workers: 2}
	a, err := Run(passiveFactory(p, 0.5), p, 0.5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(passiveFactory(p, 0.5), p, 0.5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.MeanAbsErr {
		av, bv := a.MeanAbsErr[i], b.MeanAbsErr[i]
		if av != bv && !(math.IsNaN(av) && math.IsNaN(bv)) {
			t.Fatalf("nondeterministic aggregation at %d: %v vs %v", i, av, bv)
		}
	}
}

func TestOASISBeatsPassiveInHarness(t *testing.T) {
	// End-to-end: at a small budget on an imbalanced pool, OASIS's error
	// curve ends below passive's (the Figure 2 headline at miniature scale).
	p := testPool(20000, 6)
	cfg := Config{Budget: 400, Runs: 30, BaseSeed: 100}
	oasisCurves, err := Run(oasisFactory(t, p, 20, 0.5), p, 0.5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	passiveCurves, err := Run(passiveFactory(p, 0.5), p, 0.5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := len(cfg.Checkpoints) - 1
	if last < 0 {
		last = len(oasisCurves.Checkpoints) - 1
	}
	oe, pe := oasisCurves.MeanAbsErr[last], passiveCurves.MeanAbsErr[last]
	if math.IsNaN(oe) || math.IsNaN(pe) || oe >= pe {
		t.Errorf("OASIS err %v not below passive %v", oe, pe)
	}
}

func TestFinalErrors(t *testing.T) {
	p := testPool(5000, 7)
	mean, ci, err := FinalErrors(passiveFactory(p, 0.5), p, 0.5,
		Config{Budget: 300, Runs: 15, BaseSeed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(mean) || mean < 0 {
		t.Errorf("mean error %v", mean)
	}
	if math.IsNaN(ci) || ci <= 0 {
		t.Errorf("ci %v", ci)
	}
}

// straddler is a fake method that labels pairs in index order and always
// reports the same estimate.
type straddler struct {
	next int
	est  float64
}

func (s *straddler) Name() string { return "straddler" }

func (s *straddler) Step(b *oracle.Budgeted) error {
	_, err := b.TryLabel(s.next)
	s.next++
	return err
}

func (s *straddler) Estimate() float64 { return s.est }

// TestFinalErrorsCIUsesErrorSpread: runs ending at F ± 0.05 all have
// |error| 0.05, so the CI on the mean |error| has zero width. The spread of
// F̂ itself (0.05) must not stand in for it.
func TestFinalErrorsCIUsesErrorSpread(t *testing.T) {
	p := testPool(2000, 3)
	trueF := p.TrueFMeasure(0.5)
	f := Factory{Name: "straddler", New: func(seed uint64) (sampler.Method, error) {
		if seed%2 == 0 {
			return &straddler{est: trueF + 0.05}, nil
		}
		return &straddler{est: trueF - 0.05}, nil
	}}
	mean, ci, err := FinalErrors(f, p, 0.5, Config{Budget: 50, Runs: 8, BaseSeed: 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-0.05) > 1e-12 {
		t.Errorf("mean |error| %v, want 0.05", mean)
	}
	if !(ci >= 0 && ci < 1e-9) {
		t.Errorf("ci %v, want 0: every run's |error| is 0.05", ci)
	}
}

func TestLabelsToReachError(t *testing.T) {
	c := &Curves{
		Checkpoints: []int{10, 20, 30, 40},
		MeanAbsErr:  []float64{0.5, 0.05, 0.2, 0.04},
	}
	// Error dips at 20 but rises again at 30; stable attainment is at 40.
	if got := LabelsToReachError(c, 0.1); got != 40 {
		t.Errorf("LabelsToReachError = %d, want 40", got)
	}
	if got := LabelsToReachError(c, 0.01); got != -1 {
		t.Errorf("unreachable target = %d, want -1", got)
	}
	c2 := &Curves{
		Checkpoints: []int{10, 20},
		MeanAbsErr:  []float64{0.02, 0.01},
	}
	if got := LabelsToReachError(c2, 0.1); got != 10 {
		t.Errorf("immediate attainment = %d", got)
	}
}

func TestLabelSaving(t *testing.T) {
	a := &Curves{Checkpoints: []int{10, 20}, MeanAbsErr: []float64{0.01, 0.01}}
	b := &Curves{Checkpoints: []int{10, 100}, MeanAbsErr: []float64{0.5, 0.01}}
	if got := LabelSaving(a, b, 0.05); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("saving = %v, want 0.9", got)
	}
	never := &Curves{Checkpoints: []int{10}, MeanAbsErr: []float64{0.9}}
	if got := LabelSaving(never, b, 0.05); !math.IsNaN(got) {
		t.Errorf("unreachable saving = %v", got)
	}
}

// miscalibratedPool builds a pool whose scores systematically overstate the
// match probability, so the score-based prior π̂(0) is wrong and incoming
// labels must correct it — the regime where Figure 4's convergence is
// informative.
func miscalibratedPool(n int, seed uint64) *pool.Pool {
	r := rng.New(seed)
	p := &pool.Pool{
		Name:          "miscal",
		Scores:        make([]float64, n),
		Preds:         make([]bool, n),
		TruthProb:     make([]float64, n),
		Probabilistic: true,
	}
	for i := 0; i < n; i++ {
		var s float64
		if r.Bernoulli(0.05) {
			s = 0.4 + 0.6*r.Float64()
		} else {
			s = 0.3 * r.Float64()
		}
		p.Scores[i] = s
		p.Preds[i] = s > 0.6
		// True match rate is far below the score.
		if r.Bernoulli(s * s * 0.5) {
			p.TruthProb[i] = 1
		}
	}
	return p
}

func TestRunConvergenceDiagnostics(t *testing.T) {
	p := miscalibratedPool(10000, 8)
	s, err := strata.CSF(p, 15, 0)
	if err != nil {
		t.Fatal(err)
	}
	o, err := core.New(p, s, core.Config{Alpha: 0.5}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	orc := oracle.FromProbs(p.TruthProb, rng.New(10))
	conv, err := RunConvergence(o, p, s, 0.5, 6000, 50, orc)
	if err != nil {
		t.Fatal(err)
	}
	if len(conv.Labels) < 10 {
		t.Fatalf("too few samples: %d", len(conv.Labels))
	}
	n := len(conv.Labels)
	if len(conv.FError) != n || len(conv.PiError) != n || len(conv.VError) != n || len(conv.KL) != n {
		t.Fatal("diagnostic series length mismatch")
	}
	for i := 0; i < n; i++ {
		if conv.KL[i] < 0 || math.IsNaN(conv.KL[i]) {
			t.Errorf("KL[%d] = %v", i, conv.KL[i])
		}
		if conv.PiError[i] < 0 || conv.PiError[i] > 1 {
			t.Errorf("PiError[%d] = %v", i, conv.PiError[i])
		}
	}
	// Convergence: the tail should improve on the head for π, v and KL.
	// Average a few samples at each end — single snapshots are noisy, and
	// the paper itself observes v*/KL converging much later than π (Fig. 4).
	avg := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	w := 3
	if n < 2*w {
		w = 1
	}
	if head, tail := avg(conv.PiError[:w]), avg(conv.PiError[n-w:]); tail >= head {
		t.Errorf("π error did not decrease: %v → %v", head, tail)
	}
	if head, tail := avg(conv.KL[:w]), avg(conv.KL[n-w:]); tail >= head {
		t.Errorf("KL did not decrease: %v → %v", head, tail)
	}
	if head, tail := avg(conv.VError[:w]), avg(conv.VError[n-w:]); tail >= head {
		t.Errorf("v error did not decrease: %v → %v", head, tail)
	}
}

func TestRunChecksBudgetAgainstPool(t *testing.T) {
	p := testPool(50, 11)
	curves, err := Run(passiveFactory(p, 0.5), p, 0.5, Config{Budget: 1000, Runs: 3, BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	last := curves.Checkpoints[len(curves.Checkpoints)-1]
	if last > 50 {
		t.Errorf("checkpoint %d exceeds pool size", last)
	}
}
