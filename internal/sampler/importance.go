package sampler

import (
	"math"

	"oasis/internal/estimator"
	"oasis/internal/pool"
	"oasis/internal/rng"
)

// ISConfig configures the static importance-sampling baseline.
type ISConfig struct {
	// Alpha is the F-measure weight.
	Alpha float64
	// Epsilon mixes the uniform distribution into the instrumental
	// distribution for positivity (as OASIS does; without it, items the
	// score model assigns zero mass could never be sampled and the estimator
	// would be inconsistent). Default 1e-3.
	Epsilon float64
	// Naive selects O(N)-per-draw inverse-CDF sampling — the implementation
	// the paper times in Table 3. When false, a Walker alias sampler makes
	// draws O(1) with an identical distribution (used for large sweeps).
	Naive bool
}

// IS is the static (non-adaptive) importance sampler of Sawade et al. as
// described in §6.2: record pairs are drawn from a fixed instrumental
// distribution approximating the asymptotically optimal one (Eqn. 5), with
// oracle probabilities p(1|z) replaced by probability-mapped similarity
// scores and F_α replaced by a score-based initial guess. Because the
// distribution never adapts, poorly calibrated scores leave it far from
// optimal — the effect Figure 3 measures.
type IS struct {
	pool     *pool.Pool
	cfg      ISConfig
	weights  []float64 // per-item importance weights p_i / q_i
	probs    []float64 // instrumental distribution (normalised)
	probsSum float64   // Σ probs, validated once at construction
	alias    *rng.Alias
	est      *estimator.Weighted
	rng      *rng.RNG
}

// ScoreBasedF returns the initial F-measure guess computed purely from
// probability-mapped scores and predictions, the per-item analogue of
// Algorithm 2 line 8: F̂(0) = Σ g_i·l̂_i / (α Σ l̂_i + (1−α) Σ g_i).
func ScoreBasedF(p *pool.Pool, alpha float64) float64 {
	var num, pred, tru float64
	for i := 0; i < p.N(); i++ {
		g := p.ProbScore(i)
		if p.Preds[i] {
			num += g
			pred++
		}
		tru += g
	}
	den := alpha*pred + (1-alpha)*tru
	if den <= 0 {
		return math.NaN()
	}
	f := num / den
	if f > 1 {
		f = 1
	}
	return f
}

// OptimalInstrumental evaluates the asymptotically optimal instrumental
// shape of Eqn. (5) for one item, up to normalisation, given the item's
// prediction l̂, its oracle-probability estimate g, the F-measure estimate f
// and the underlying mass p(z) (uniform 1/N in our pools):
//
//	q*(z) ∝ p(z)·[(1−α)(1−l̂)·F·√g + l̂·√(α²F²(1−g) + (1−F)²g)]
func OptimalInstrumental(alpha, f, g float64, pred bool, pz float64) float64 {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	if g < 0 {
		g = 0
	}
	if g > 1 {
		g = 1
	}
	if pred {
		return pz * math.Sqrt(alpha*alpha*f*f*(1-g)+(1-f)*(1-f)*g)
	}
	return pz * (1 - alpha) * f * math.Sqrt(g)
}

// NewIS builds the static importance sampler over p.
func NewIS(p *pool.Pool, cfg ISConfig, r *rng.RNG) (*IS, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if cfg.Epsilon <= 0 {
		cfg.Epsilon = 1e-3
	}
	if cfg.Epsilon > 1 {
		cfg.Epsilon = 1
	}
	n := p.N()
	f0 := ScoreBasedF(p, cfg.Alpha)
	if math.IsNaN(f0) {
		// A pool with no predicted positives and zero score mass: fall back
		// to uniform sampling (the instrumental shape carries no signal).
		f0 = 0
	}
	pz := 1.0 / float64(n)
	raw := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		raw[i] = OptimalInstrumental(cfg.Alpha, f0, p.ProbScore(i), p.Preds[i], pz)
		total += raw[i]
	}
	probs := make([]float64, n)
	weights := make([]float64, n)
	for i := 0; i < n; i++ {
		q := cfg.Epsilon * pz
		if total > 0 {
			q += (1 - cfg.Epsilon) * raw[i] / total
		} else {
			q = pz
		}
		probs[i] = q
		weights[i] = pz / q
	}
	s := &IS{
		pool:    p,
		cfg:     cfg,
		weights: weights,
		probs:   probs,
		est:     estimator.NewWeighted(cfg.Alpha),
		rng:     r,
	}
	if cfg.Naive {
		// Validate (and sum) the fixed distribution once here, so the naive
		// O(N) draw loop does not re-scan for NaN/Inf on every call — the
		// construction-boundary validation convention of package rng.
		sum, err := rng.ValidateWeights(probs)
		if err != nil {
			return nil, err
		}
		s.probsSum = sum
	} else {
		alias, err := rng.NewAlias(probs)
		if err != nil {
			return nil, err
		}
		s.alias = alias
	}
	return s, nil
}

// Name identifies the method in reports.
func (s *IS) Name() string { return "IS" }

// Draw draws one pair from the static instrumental distribution, with its
// importance weight p_i / q_i.
func (s *IS) Draw() Draw {
	var i int
	if s.cfg.Naive {
		// The naive mode keeps the O(N) inverse-CDF scan the paper times in
		// Table 3, but validation happened once at construction.
		i = s.rng.CategoricalTrusted(s.probs, s.probsSum)
	} else {
		i = s.alias.Draw(s.rng)
	}
	return Draw{Pair: i, Weight: s.weights[i]}
}

// Commit folds the pair's label into the bias-corrected estimate.
func (s *IS) Commit(d Draw, label bool) { s.est.Add(d.Weight, label, s.pool.Preds[d.Pair]) }

// Estimate returns the current F̂.
func (s *IS) Estimate() float64 { return s.est.Estimate() }
