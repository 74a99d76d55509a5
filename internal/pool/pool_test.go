package pool

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func tinyPool() *Pool {
	return &Pool{
		Name:          "tiny",
		Scores:        []float64{0.9, 0.8, 0.3, 0.1, 0.7, 0.2},
		Preds:         []bool{true, true, false, false, true, false},
		TruthProb:     []float64{1, 0, 1, 0, 1, 1},
		Probabilistic: true,
	}
}

func TestValidate(t *testing.T) {
	p := tinyPool()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (&Pool{}).Validate(); err != ErrEmptyPool {
		t.Error("expected ErrEmptyPool")
	}
	bad := tinyPool()
	bad.Preds = bad.Preds[:2]
	if err := bad.Validate(); err == nil {
		t.Error("expected length-mismatch error")
	}
	badScore := tinyPool()
	badScore.Scores[0] = math.NaN()
	if err := badScore.Validate(); err == nil {
		t.Error("expected non-finite score error")
	}
	badProb := tinyPool()
	badProb.TruthProb[0] = 1.5
	if err := badProb.Validate(); err == nil {
		t.Error("expected probability range error")
	}
	noTruth := tinyPool()
	noTruth.TruthProb = nil
	if err := noTruth.Validate(); err != nil {
		t.Errorf("a pool without ground truth was refused: %v", err)
	}
	shortTruth := tinyPool()
	shortTruth.TruthProb = shortTruth.TruthProb[:3]
	if err := shortTruth.Validate(); err == nil {
		t.Error("expected ground-truth length-mismatch error")
	}
}

func TestExpectedConfusionDeterministic(t *testing.T) {
	p := tinyPool()
	tp, fp, fn := p.ExpectedConfusion()
	// preds: T T F F T F; truth: 1 0 1 0 1 1
	if tp != 2 || fp != 1 || fn != 2 {
		t.Errorf("confusion = %v %v %v, want 2 1 2", tp, fp, fn)
	}
}

func TestTrueMeasures(t *testing.T) {
	p := tinyPool()
	// precision = 2/3, recall = 2/4, F_1/2 = tp/(0.5(tp+fp)+0.5(tp+fn)).
	if got := p.TruePrecision(); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("precision = %v", got)
	}
	if got := p.TrueRecall(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("recall = %v", got)
	}
	wantF := 2.0 / (0.5*3 + 0.5*4)
	if got := p.TrueFMeasure(0.5); math.Abs(got-wantF) > 1e-12 {
		t.Errorf("F = %v, want %v", got, wantF)
	}
}

func TestFMeasureHarmonicIdentity(t *testing.T) {
	// F_{1/2} must equal the harmonic mean of precision and recall.
	p := tinyPool()
	prec, rec := p.TruePrecision(), p.TrueRecall()
	hm := 2 * prec * rec / (prec + rec)
	if got := p.TrueFMeasure(0.5); math.Abs(got-hm) > 1e-12 {
		t.Errorf("F = %v, harmonic mean = %v", got, hm)
	}
}

func TestTrueFMeasureUndefined(t *testing.T) {
	p := &Pool{
		Scores:    []float64{0.5},
		Preds:     []bool{false},
		TruthProb: []float64{0},
	}
	if got := p.TrueFMeasure(0.5); !math.IsNaN(got) {
		t.Errorf("expected NaN, got %v", got)
	}
}

func TestNoisyOracleTarget(t *testing.T) {
	// With oracle probabilities strictly inside (0,1), the expected
	// confusion interpolates.
	p := &Pool{
		Scores:    []float64{0.5, 0.5},
		Preds:     []bool{true, false},
		TruthProb: []float64{0.7, 0.2},
	}
	tp, fp, fn := p.ExpectedConfusion()
	if math.Abs(tp-0.7) > 1e-12 || math.Abs(fp-0.3) > 1e-12 || math.Abs(fn-0.2) > 1e-12 {
		t.Errorf("confusion = %v %v %v", tp, fp, fn)
	}
}

func TestImbalanceRatio(t *testing.T) {
	p := tinyPool()
	// 4 expected matches of 6 pairs → (6-4)/4 = 0.5.
	if got := p.ImbalanceRatio(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("imbalance = %v", got)
	}
	empty := &Pool{Scores: []float64{0.1}, Preds: []bool{false}, TruthProb: []float64{0}}
	if !math.IsInf(empty.ImbalanceRatio(), 1) {
		t.Error("zero matches should give +Inf imbalance")
	}
}

func TestProbScoreCalibrated(t *testing.T) {
	p := tinyPool()
	for i := range p.Scores {
		if got := p.ProbScore(i); got != p.Scores[i] {
			t.Errorf("calibrated ProbScore[%d] = %v", i, got)
		}
	}
	p.Scores[0] = 1.7 // out of range must clamp
	if got := p.ProbScore(0); got != 1 {
		t.Errorf("clamp high = %v", got)
	}
	p.Scores[0] = -0.2
	if got := p.ProbScore(0); got != 0 {
		t.Errorf("clamp low = %v", got)
	}
}

// TestUncalibratedProbMatchesTwoSidedForm holds the branch-free logistic
// to the bits of the two-sided form it replaced, on both signs, at ±0 and
// ±Inf, at the extremes of exp and on random arguments.
func TestUncalibratedProbMatchesTwoSidedForm(t *testing.T) {
	twoSided := func(x float64) float64 {
		if x >= 0 {
			z := math.Exp(-x)
			return 1 / (1 + z)
		}
		z := math.Exp(x)
		return z / (1 + z)
	}
	xs := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 1e-300, -1e-300, 36, -36, 709, -709, 745, -745, 800, -800,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64}
	r := rand.New(rand.NewSource(1))
	for range 100000 {
		xs = append(xs, r.NormFloat64()*4, r.NormFloat64()*100, math.Ldexp(r.Float64()-0.5, r.Intn(80)-60))
	}
	for _, x := range xs {
		for _, tau := range []float64{0, 0.5, -2} {
			want := twoSided(x - tau)
			if got := UncalibratedProb(x, tau); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("UncalibratedProb(%v, %v) = %v, two-sided form %v", x, tau, got, want)
			}
		}
	}
}

func TestProbScoreUncalibrated(t *testing.T) {
	p := &Pool{
		Scores:    []float64{-3, 0, 3},
		Preds:     []bool{false, false, true},
		TruthProb: []float64{0, 0, 1},
		Threshold: 0,
	}
	if got := p.ProbScore(1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("sigmoid(0) = %v", got)
	}
	if !(p.ProbScore(0) < 0.5 && p.ProbScore(2) > 0.5) {
		t.Error("sigmoid ordering broken")
	}
	p.Threshold = 3
	if got := p.ProbScore(2); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("threshold shift: %v", got)
	}
}

func TestProbScoreRangeProperty(t *testing.T) {
	f := func(score float64, calibrated bool, thr float64) bool {
		if math.IsNaN(score) || math.IsInf(score, 0) || math.IsNaN(thr) || math.IsInf(thr, 0) {
			return true
		}
		p := &Pool{
			Scores:        []float64{score},
			Preds:         []bool{true},
			TruthProb:     []float64{1},
			Probabilistic: calibrated,
			Threshold:     thr,
		}
		v := p.ProbScore(0)
		return v >= 0 && v <= 1 && !math.IsNaN(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCounts(t *testing.T) {
	p := tinyPool()
	if p.N() != 6 {
		t.Errorf("N = %d", p.N())
	}
	if p.NumPredPositives() != 3 {
		t.Errorf("pred positives = %d", p.NumPredPositives())
	}
	if p.ExpectedMatches() != 4 {
		t.Errorf("expected matches = %v", p.ExpectedMatches())
	}
}
