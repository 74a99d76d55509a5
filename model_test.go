package oasis

// Tests of the OASIS model (model.go) driven as the paper's sequential
// Algorithm 3: each draw is folded in at once, with no proposal bookkeeping.

import (
	"math"
	"testing"

	"oasis/internal/oracle"
	"oasis/internal/pool"
	"oasis/internal/rng"
	"oasis/internal/sampler"
)

// draw is one draw of the sequential Algorithm 3: stratum k* ~ v(t), then a
// pair uniform within P_k* from the sampler's own stream.
func draw(o *Sampler) sampler.Draw {
	k, w := o.drawStratum()
	members := o.str.Members(k)
	return sampler.Draw{Pair: int(members[o.rng.Intn(len(members))]), Stratum: k, Weight: w}
}

// commit folds the label of a drawn pair into the model.
func commit(o *Sampler, d sampler.Draw, label bool) { o.fold(d.Pair, d.Stratum, d.Weight, label) }

// step is one iteration of Algorithm 3: draw, label the pair through the
// run's label cache (the oracle is asked once per pair), commit. The tests
// below count draws, not labels, and some draw more often than their pool
// has pairs, so they loop over step themselves.
func step(o *Sampler, orc oracle.Oracle, cache map[int]bool) {
	d := draw(o)
	label, ok := cache[d.Pair]
	if !ok {
		label = orc.Label(d.Pair)
		cache[d.Pair] = label
	}
	commit(o, d, label)
}

// steps makes n iterations of step with a fresh label cache.
func steps(o *Sampler, orc oracle.Oracle, n int) {
	cache := make(map[int]bool)
	for i := 0; i < n; i++ {
		step(o, orc, cache)
	}
}

// makePool builds an imbalanced pool with a controllable relationship
// between score and truth: truth probability equals the score, matching the
// calibrated-scores regime. Deterministic truth is drawn once at pool
// construction.
func makePool(n int, imbalance float64, seed uint64) *pool.Pool {
	r := rng.New(seed)
	p := &pool.Pool{
		Name:          "model-test",
		Scores:        make([]float64, n),
		Preds:         make([]bool, n),
		TruthProb:     make([]float64, n),
		Probabilistic: true,
	}
	highFrac := 1 / (1 + imbalance)
	for i := 0; i < n; i++ {
		var s float64
		if r.Bernoulli(highFrac * 2) {
			s = 0.3 + 0.7*r.Float64()
		} else {
			s = 0.25 * r.Float64()
		}
		p.Scores[i] = s
		p.Preds[i] = s > 0.55
		if r.Bernoulli(s * s) { // truth correlates with score but imperfectly
			p.TruthProb[i] = 1
		}
	}
	return p
}

// newOASIS builds a sampler over p with k CSF strata and the given seed.
func newOASIS(t testing.TB, p *pool.Pool, k int, opts Options, seed uint64) *Sampler {
	t.Helper()
	opts.Strata, opts.Seed = k, seed
	o, err := NewSampler(WrapPool(p), opts)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestNewValidation(t *testing.T) {
	p := makePool(500, 50, 1)
	s, err := Stratify(WrapPool(p), Options{Strata: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSamplerStratified(WrapPool(&pool.Pool{}), Options{Alpha: 0.5, Seed: 1}, s); err == nil {
		t.Error("expected error on empty pool")
	}
	other := makePool(100, 50, 2)
	sOther, _ := Stratify(WrapPool(other), Options{Strata: 5})
	if _, err := NewSamplerStratified(WrapPool(p), Options{Alpha: 0.5, Seed: 1}, sOther); err == nil {
		t.Error("expected error on strata/pool mismatch")
	}
}

func TestInitialEstimates(t *testing.T) {
	p := makePool(2000, 50, 3)
	o := newOASIS(t, p, 20, Options{Alpha: 0.5}, 4)
	f0 := o.InitialEstimate()
	if math.IsNaN(f0) || f0 < 0 || f0 > 1 {
		t.Fatalf("F̂(0) = %v", f0)
	}
	pi0 := o.piInit
	if len(pi0) != o.K() {
		t.Fatalf("π̂(0) length %d, K %d", len(pi0), o.K())
	}
	for k, v := range pi0 {
		if v <= 0 || v >= 1 {
			t.Errorf("π̂(0)[%d] = %v not in (0,1)", k, v)
		}
	}
	// Estimate before any labels must return the initial guess.
	if o.Estimate() != f0 {
		t.Errorf("pre-label estimate %v != F̂(0) %v", o.Estimate(), f0)
	}
}

func TestInstrumentalIsDistribution(t *testing.T) {
	p := makePool(2000, 100, 5)
	o := newOASIS(t, p, 25, Options{Alpha: 0.5}, 6)
	v := o.instrumental()
	sum := 0.0
	for k, q := range v {
		if q <= 0 {
			t.Errorf("v[%d] = %v must be strictly positive (ε-greedy)", k, q)
		}
		sum += q
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("v sums to %v", sum)
	}
}

func TestEpsilonGreedyLowerBound(t *testing.T) {
	// Remark 5: v_k ≥ ε·ω_k for every stratum, so importance weights are
	// bounded by 1/ε.
	p := makePool(3000, 200, 7)
	eps := 0.01
	o := newOASIS(t, p, 30, Options{Alpha: 0.5, Epsilon: eps}, 8)
	orc := oracle.FromProbs(p.TruthProb, rng.New(9))
	cache := make(map[int]bool)
	for i := 0; i < 500; i++ {
		step(o, orc, cache)
		v := o.instrumental()
		for k, q := range v {
			if q < eps*o.str.Weights[k]-1e-12 {
				t.Fatalf("step %d: v[%d]=%v below ε·ω=%v", i, k, q, eps*o.str.Weights[k])
			}
		}
	}
}

func TestOASISConvergesCalibrated(t *testing.T) {
	p := makePool(20000, 100, 10)
	trueF := p.TrueFMeasure(0.5)
	if math.IsNaN(trueF) || trueF <= 0 {
		t.Fatalf("degenerate pool, trueF=%v", trueF)
	}
	// Average final estimates across several runs to smooth sampling noise.
	var errSum float64
	const runs = 10
	for run := 0; run < runs; run++ {
		o := newOASIS(t, p, 30, Options{Alpha: 0.5}, 100+uint64(run))
		steps(o, oracle.FromProbs(p.TruthProb, rng.New(200+uint64(run))), 4000)
		errSum += math.Abs(o.Estimate() - trueF)
	}
	if mean := errSum / runs; mean > 0.05 {
		t.Errorf("mean |F̂−F| = %v after 4000 iterations (trueF=%v)", mean, trueF)
	}
}

func TestOASISConvergesUncalibrated(t *testing.T) {
	// Same pool but scores presented as raw margins (uncalibrated): OASIS
	// must still converge because it learns π from labels.
	p := makePool(20000, 100, 11)
	trueF := p.TrueFMeasure(0.5)
	raw := &pool.Pool{
		Name:      "uncal",
		Scores:    make([]float64, p.N()),
		Preds:     p.Preds,
		TruthProb: p.TruthProb,
		Threshold: 0,
	}
	for i, s := range p.Scores {
		raw.Scores[i] = 8 * (s - 0.55) // margin-like transform
	}
	var errSum float64
	const runs = 10
	for run := 0; run < runs; run++ {
		o := newOASIS(t, raw, 30, Options{Alpha: 0.5}, 300+uint64(run))
		steps(o, oracle.FromProbs(raw.TruthProb, rng.New(400+uint64(run))), 4000)
		errSum += math.Abs(o.Estimate() - trueF)
	}
	if mean := errSum / runs; mean > 0.06 {
		t.Errorf("uncalibrated mean |F̂−F| = %v (trueF=%v)", mean, trueF)
	}
}

func TestOASISConvergesNoisyOracle(t *testing.T) {
	// Oracle probabilities strictly inside (0,1): the target is the
	// population F computed from p(1|z); consistency must still hold.
	n := 10000
	r := rng.New(12)
	p := &pool.Pool{
		Name:          "noisy",
		Scores:        make([]float64, n),
		Preds:         make([]bool, n),
		TruthProb:     make([]float64, n),
		Probabilistic: true,
	}
	for i := 0; i < n; i++ {
		s := r.Float64()
		if r.Bernoulli(0.9) {
			s *= 0.2
		}
		p.Scores[i] = s
		p.Preds[i] = s > 0.5
		p.TruthProb[i] = 0.1 + 0.8*s // genuinely noisy oracle
	}
	trueF := p.TrueFMeasure(0.5)
	var errSum float64
	const runs = 8
	for run := 0; run < runs; run++ {
		o := newOASIS(t, p, 20, Options{Alpha: 0.5}, 500+uint64(run))
		// No caching correctness issue: each pair keeps one realised label
		// per run, matching how a crowd answers once. The estimator then
		// targets the realised-label F, which concentrates around trueF.
		steps(o, oracle.NewBernoulli(p.TruthProb, rng.New(600+uint64(run))), 6000)
		errSum += math.Abs(o.Estimate() - trueF)
	}
	if mean := errSum / runs; mean > 0.08 {
		t.Errorf("noisy-oracle mean |F̂−F| = %v (trueF=%v)", mean, trueF)
	}
}

func TestPrecisionAndRecallTargets(t *testing.T) {
	p := makePool(20000, 50, 13)
	for _, tc := range []struct {
		opts Options
		want float64
		name string
	}{
		{Options{Alpha: 1}, p.TruePrecision(), "precision"},
		{Options{Recall: true}, p.TrueRecall(), "recall"},
	} {
		var errSum float64
		const runs = 8
		for run := 0; run < runs; run++ {
			o := newOASIS(t, p, 30, tc.opts, 700+uint64(run))
			steps(o, oracle.FromProbs(p.TruthProb, rng.New(800+uint64(run))), 4000)
			errSum += math.Abs(o.Estimate() - tc.want)
		}
		if mean := errSum / runs; mean > 0.05 {
			t.Errorf("%s: mean error %v (target %v)", tc.name, mean, tc.want)
		}
	}
}

func TestPosteriorUpdates(t *testing.T) {
	p := makePool(1000, 20, 14)
	o := newOASIS(t, p, 10, Options{Alpha: 0.5, PriorStrength: 2}, 15)
	before := o.PosteriorMean()
	steps(o, oracle.FromProbs(p.TruthProb, rng.New(16)), 200)
	after := o.PosteriorMean()
	changed := false
	for k := range before {
		if after[k] < 0 || after[k] > 1 {
			t.Fatalf("posterior mean out of range: %v", after[k])
		}
		if after[k] != before[k] {
			changed = true
		}
	}
	if !changed {
		t.Error("posterior never moved despite 200 labels")
	}
}

func TestPosteriorMeanMatchesBetaFormula(t *testing.T) {
	// Feed a known label sequence through one stratum and check Eqn. 11.
	n := 100
	p := &pool.Pool{
		Scores:        make([]float64, n),
		Preds:         make([]bool, n),
		TruthProb:     make([]float64, n),
		Probabilistic: true,
	}
	for i := range p.Scores {
		p.Scores[i] = 0.5
		p.TruthProb[i] = 1 // all matches
	}
	eta := 4.0
	// Bare Algorithm 3 (no Remark 4 decay): Eqn. 11 exactly.
	o := newOASIS(t, p, 1, Options{Alpha: 0.5, PriorStrength: eta, NoPriorDecay: true}, 17)
	pi0 := o.piInit[0]
	const draws = 25
	steps(o, oracle.FromProbs(p.TruthProb, rng.New(18)), draws)
	// All labels are matches: posterior mean = (η·π0 + 25)/(η + 25).
	want := (eta*pi0 + draws) / (eta + draws)
	got := o.PosteriorMean()[0]
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("posterior mean %v, want %v", got, want)
	}

	// Default decay mode: prior pseudo-counts shrink by 1/(1+n_k), so the
	// posterior mean is (η·π0/(1+n) + n)/(η/(1+n) + n) after n matches.
	od := newOASIS(t, p, 1, Options{Alpha: 0.5, PriorStrength: eta}, 17)
	steps(od, oracle.FromProbs(p.TruthProb, rng.New(18)), draws)
	decayFactor := 1.0 / (1 + draws)
	wantDecay := (eta*pi0*decayFactor + draws) / (eta*decayFactor + draws)
	gotDecay := od.PosteriorMean()[0]
	if math.Abs(gotDecay-wantDecay) > 1e-9 {
		t.Errorf("decayed posterior mean %v, want %v", gotDecay, wantDecay)
	}
}

func TestPriorDecay(t *testing.T) {
	// With a badly misspecified prior, decay should converge π̂ faster.
	n := 2000
	p := &pool.Pool{
		Scores:        make([]float64, n),
		Preds:         make([]bool, n),
		TruthProb:     make([]float64, n),
		Probabilistic: true,
	}
	for i := range p.Scores {
		p.Scores[i] = 0.9 // prior says "matches", truth says otherwise
		p.TruthProb[i] = 0
	}
	run := func(decay bool) float64 {
		o := newOASIS(t, p, 1, Options{Alpha: 0.5, PriorStrength: 60, NoPriorDecay: !decay}, 19)
		steps(o, oracle.FromProbs(p.TruthProb, rng.New(20)), 30)
		return o.PosteriorMean()[0] // true value is 0
	}
	if withDecay, without := run(true), run(false); withDecay >= without {
		t.Errorf("decay %v should beat no-decay %v under misspecified prior", withDecay, without)
	}
}

func TestOASISBeatsPassiveVariance(t *testing.T) {
	// The core claim at fixed label budget: OASIS's estimate spread across
	// runs is below passive sampling's on an imbalanced pool.
	p := makePool(30000, 300, 22)
	trueF := p.TrueFMeasure(0.5)
	const runs = 30
	const budget = 300
	var oasisSq, passiveSq float64
	for run := 0; run < runs; run++ {
		o := newOASIS(t, p, 30, Options{Alpha: 0.5}, 1000+uint64(run))
		orc, cache := oracle.FromProbs(p.TruthProb, rng.New(2000+uint64(run))), make(map[int]bool)
		for len(cache) < budget {
			step(o, orc, cache)
		}
		d := o.Estimate() - trueF
		oasisSq += d * d

		passive := sampler.NewPassive(p, 0.5, rng.New(3000+uint64(run)))
		if _, _, err := sampler.Run(passive, oracle.FromProbs(p.TruthProb, rng.New(4000+uint64(run))), budget, nil); err != nil {
			t.Fatal(err)
		}
		est := passive.Estimate()
		if math.IsNaN(est) {
			est = 0 // count undefined as maximal error contribution
		}
		dp := est - trueF
		passiveSq += dp * dp
	}
	if oasisSq >= passiveSq {
		t.Errorf("OASIS MSE %v not below passive MSE %v at budget %d",
			oasisSq/runs, passiveSq/runs, budget)
	}
}

func TestDeterministicRuns(t *testing.T) {
	p := makePool(5000, 50, 23)
	run := func() float64 {
		o := newOASIS(t, p, 20, Options{Alpha: 0.5}, 42)
		steps(o, oracle.FromProbs(p.TruthProb, rng.New(43)), 500)
		return o.Estimate()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seeds gave different estimates: %v vs %v", a, b)
	}
}

// method runs the model under sampler.Run: a draw is one draw of the
// sequential Algorithm 3 (see draw), a commit folds it in (see commit).
type method struct{ *Sampler }

func (method) Name() string                        { return "OASIS" }
func (m method) Draw() sampler.Draw                { return draw(m.Sampler) }
func (m method) Commit(d sampler.Draw, label bool) { commit(m.Sampler, d, label) }

// TestBudgetExhaustion checks that sampler.Run stops OASIS exactly at its
// label budget: the oracle is asked once per distinct pair, never past the
// budget, and every draw is committed.
func TestBudgetExhaustion(t *testing.T) {
	p := makePool(1000, 20, 24)
	o := newOASIS(t, p, 10, Options{Alpha: 0.5}, 25)
	asked := 0
	orc := oracle.FromProbs(p.TruthProb, rng.New(26))
	labels, draws, err := sampler.Run(method{o}, countOracle{orc, &asked}, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if labels != 5 || asked != 5 {
		t.Errorf("labels %d, oracle asked %d times; want 5 and 5", labels, asked)
	}
	if draws < labels || o.est.N() != draws {
		t.Errorf("draws %d, commits %d", draws, o.est.N())
	}
}

// countOracle counts the queries that reach its oracle.
type countOracle struct {
	oracle.Oracle
	n *int
}

func (c countOracle) Label(i int) bool {
	*c.n++
	return c.Oracle.Label(i)
}
