// Package core implements OASIS — Optimal Asymptotic Sequential Importance
// Sampling — the paper's primary contribution (§4, Algorithms 2 and 3).
//
// OASIS estimates the F-measure of an ER system by adaptive importance
// sampling over score strata:
//
//  1. The pool is stratified by similarity score (package strata,
//     Algorithm 1).
//  2. Each stratum k carries a latent match probability π_k with a Beta
//     prior initialised from the stratum's mean (probability-mapped) score
//     (Algorithm 2); oracle labels update independent Beta posteriors
//     (Eqn. 10–11).
//  3. Every iteration, the stratified asymptotically optimal instrumental
//     distribution v* (the stratified Eqn. 5) is recomputed from the current
//     estimates F̂ and π̂, mixed ε-greedily with the stratum weights ω for
//     positivity (Eqn. 12), and one pair is drawn: stratum k* ~ v, pair
//     uniform within P_k*.
//  4. The F-measure is estimated by the bias-corrected AIS estimator
//     (Eqn. 3) with importance weights w = ω_k / v_k (Algorithm 3 line 6).
//
// The ε-greedy mixture keeps every stratum reachable, which bounds the
// importance weights by 1/ε and yields the consistency guarantee of
// Theorem 3; this is checked empirically by the package tests.
package core

import (
	"errors"
	"math"
	"time"

	"oasis/internal/estimator"
	"oasis/internal/pool"
	"oasis/internal/rng"
	"oasis/internal/sampler"
	"oasis/internal/strata"
)

// Config holds the OASIS hyperparameters of Algorithm 3.
type Config struct {
	// Alpha is the F-measure weight α ∈ [0, 1]; 1/2 in the paper's
	// experiments (§6.3).
	Alpha float64
	// Epsilon is the ε-greedy exploration weight in (0, 1]; the paper uses
	// 1e-3. Default 1e-3.
	Epsilon float64
	// PriorStrength is η > 0, the weight of the score-based Beta prior; the
	// paper uses 2K. Default 2K.
	PriorStrength float64
	// DisablePriorDecay turns off the practical modification of Remark 4
	// (prior pseudo-counts of a stratum down-weighted by 1/(1+n_k) as labels
	// arrive). Decay is ON by default, matching the released reference
	// implementation; disabling it reproduces the bare Algorithm 3.
	DisablePriorDecay bool
	// PosteriorEstimate reports (and adapts on) the stratified posterior
	// plug-in estimate F̂ = Σ ω_k π̂_k λ_k / (α Σ ω_k λ_k + (1−α) Σ ω_k π̂_k)
	// instead of the importance-weighted ratio of Eqn. (3). After the
	// pipeline's thresholding, strata are (near-)prediction-pure, so the
	// within-stratum independence approximation of Algorithm 2 line 8 is
	// essentially exact; the plug-in often has lower variance early. The
	// default (false) is the estimator the paper analyses.
	PosteriorEstimate bool
}

func (c *Config) defaults(k int) {
	if c.Epsilon <= 0 {
		c.Epsilon = 1e-3
	}
	if c.Epsilon > 1 {
		c.Epsilon = 1
	}
	if c.PriorStrength <= 0 {
		c.PriorStrength = 2 * float64(k)
	}
}

// Sampler is the OASIS sampler/estimator: the Bayesian model, the adaptive
// instrumental distribution and the AIS estimate of Algorithm 3. Create with
// New; DrawStratum draws and Commit folds a label in. The served engine
// (package oasis) picks the pairs and owns the labels; Estimate returns the
// current F̂ at any time.
type Sampler struct {
	pool *pool.Pool
	str  *strata.Strata
	cfg  Config
	rng  *rng.RNG

	// Bayesian model state: gamma0[k], gamma1[k] are the Beta posterior
	// pseudo-counts of matches and non-matches (rows of Γ in Eqn. 9/10);
	// labelsSeen[k] = n_k counts actual labels per stratum for prior decay.
	prior0, prior1 []float64
	count0, count1 []float64
	labelsSeen     []int

	// Per-stratum weight moments over committed labels: Σw and Σw² broken
	// out by the stratum the draw came from. The estimator keeps only the
	// pooled moments; these per-stratum views feed the convergence
	// diagnostics (stratum-local ESS, weight-mass shares, allocation skew)
	// without touching the draw path — two adds per Commit.
	stratSumW, stratSumW2 []float64

	// Initial estimates (Algorithm 2).
	piInit []float64
	fInit  float64

	est *estimator.Weighted

	// Scratch buffers reused across iterations.
	piBuf []float64
	vStar []float64
	v     []float64

	// Cached instrumental distribution. v(t) depends only on the Beta
	// posterior and the running estimate, both of which change exactly when a
	// label is committed (or a snapshot restored) — the adaptive-IS update
	// structure — so vCum, a prepared O(log K) inverse-CDF sampler over v, is
	// rebuilt lazily behind vFresh. A batch of draws with no intervening
	// commit pays for one rebuild: amortized O(1) per draw, zero allocations.
	// vEpoch counts rebuild-invalidating events so derived caches in outer
	// layers (the proposal engine in package oasis) can follow along.
	vCum    *rng.Cumulative
	vWeight []float64 // ω_k / v_k per stratum, refreshed with vCum
	vFresh  bool
	vEpoch  uint64

	// Rebuild accounting for tracing: how many times the cached v(t) was
	// actually rebuilt and the nanoseconds those rebuilds took. Read via
	// RebuildStats under the owning session's lock; the fresh-path check
	// above costs nothing extra.
	rebuilds     uint64
	rebuildNanos int64

	iterations int
}

// ErrNoStrata is returned when the stratification is empty.
var ErrNoStrata = errors.New("core: empty stratification")

// New builds an OASIS sampler over an already-stratified pool. The Strata
// must partition exactly the pool's items (as produced by strata.CSF or
// strata.EqualSize on the same pool, which validate its columns); the
// sampler reads its layout in place, so one Strata may back any number of
// samplers.
func New(p *pool.Pool, s *strata.Strata, cfg Config, r *rng.RNG) (*Sampler, error) {
	if s == nil || s.K() == 0 {
		return nil, ErrNoStrata
	}
	if s.N() != p.N() {
		return nil, errors.New("core: strata do not cover the pool")
	}
	k := s.K()
	cfg.defaults(k)

	o := &Sampler{
		pool:       p,
		str:        s,
		cfg:        cfg,
		rng:        r,
		prior0:     make([]float64, k),
		prior1:     make([]float64, k),
		count0:     make([]float64, k),
		count1:     make([]float64, k),
		labelsSeen: make([]int, k),
		stratSumW:  make([]float64, k),
		stratSumW2: make([]float64, k),
		piInit:     make([]float64, k),
		est:        estimator.NewWeighted(cfg.Alpha),
		piBuf:      make([]float64, k),
		vStar:      make([]float64, k),
		v:          make([]float64, k),
	}

	// ---- Algorithm 2: initialisation from scores ----
	// π̂(0)_k ← mean probability-mapped score of stratum k (lines 2–5), kept
	// strictly inside (0,1) so the Beta prior is proper.
	const pad = 1e-4
	for j := 0; j < k; j++ {
		pi0 := s.MeanProbScore[j]
		if pi0 < pad {
			pi0 = pad
		}
		if pi0 > 1-pad {
			pi0 = 1 - pad
		}
		o.piInit[j] = pi0
	}
	// F̂(0) from π̂(0) and λ (line 8).
	var num, predMass, trueMass float64
	for j := 0; j < k; j++ {
		w := s.Weights[j]
		num += w * o.piInit[j] * s.MeanPred[j]
		predMass += w * s.MeanPred[j]
		trueMass += w * o.piInit[j]
	}
	den := cfg.Alpha*predMass + (1-cfg.Alpha)*trueMass
	if den > 0 {
		o.fInit = num / den
	} else {
		o.fInit = 0
	}
	if o.fInit > 1 {
		o.fInit = 1
	}
	// Γ(0) = η[π̂(0); 1−π̂(0)] (Algorithm 3 line 1).
	for j := 0; j < k; j++ {
		o.prior0[j] = cfg.PriorStrength * o.piInit[j]
		o.prior1[j] = cfg.PriorStrength * (1 - o.piInit[j])
	}
	return o, nil
}

// K returns the number of strata.
func (o *Sampler) K() int { return o.str.K() }

// InitialF returns the score-based initial estimate F̂(0) of Algorithm 2.
func (o *Sampler) InitialF() float64 { return o.fInit }

// Iterations returns the number of Commit calls made so far.
func (o *Sampler) Iterations() int { return o.iterations }

// PosteriorMean writes the current posterior mean π̂(t) (Eqn. 11) into dst,
// applying the Remark 4 prior decay when configured, and returns dst.
// A nil dst allocates.
func (o *Sampler) PosteriorMean(dst []float64) []float64 {
	k := o.str.K()
	if dst == nil {
		dst = make([]float64, k)
	}
	for j := 0; j < k; j++ {
		p0, p1 := o.prior0[j], o.prior1[j]
		if !o.cfg.DisablePriorDecay && o.labelsSeen[j] > 0 {
			f := 1 / float64(1+o.labelsSeen[j])
			p0 *= f
			p1 *= f
		}
		a := p0 + o.count0[j]
		b := p1 + o.count1[j]
		dst[j] = a / (a + b)
	}
	return dst
}

// pluginF computes the stratified posterior plug-in estimate of F from the
// current posterior means (Algorithm 2 line 8 with π̂(t) in place of π̂(0)).
func (o *Sampler) pluginF() float64 {
	pi := o.PosteriorMean(o.piBuf)
	var num, predMass, trueMass float64
	for j := range pi {
		w := o.str.Weights[j]
		num += w * pi[j] * o.str.MeanPred[j]
		predMass += w * o.str.MeanPred[j]
		trueMass += w * pi[j]
	}
	den := o.cfg.Alpha*predMass + (1-o.cfg.Alpha)*trueMass
	if den <= 0 {
		return o.fInit
	}
	f := num / den
	if f > 1 {
		f = 1
	}
	return f
}

// currentF returns the working F̂ used to build v(t): the AIS estimate when
// defined (or the posterior plug-in in PosteriorEstimate mode), otherwise
// the initial score-based guess — the τ=0 term of Algorithm 3 line 11.
func (o *Sampler) currentF() float64 {
	if o.cfg.PosteriorEstimate {
		return o.pluginF()
	}
	if o.est.Defined() {
		return o.est.Estimate()
	}
	return o.fInit
}

// invalidateV marks the cached instrumental distribution stale. Every
// mutation of the posterior or estimator state must call it.
func (o *Sampler) invalidateV() {
	o.vFresh = false
	o.vEpoch++
}

// refreshV rebuilds v(t) and the prepared stratum sampler if (and only if)
// the posterior changed since the last rebuild. The common batched case —
// many draws, zero intervening commits — hits the cached path, so the
// per-draw cost is O(log K) with zero allocations.
func (o *Sampler) refreshV() {
	if o.vFresh {
		return
	}
	start := time.Now()
	o.computeV()
	// o.v is strictly positive (ε-greedy mixture over non-empty strata), so
	// Reset cannot fail; it reuses vCum's buffer after the first rebuild.
	if o.vCum == nil {
		o.vCum = &rng.Cumulative{}
	}
	if err := o.vCum.Reset(o.v); err != nil {
		// Unreachable for a well-formed sampler; fall back to a proportional
		// distribution rather than panicking in a serving path.
		copy(o.v, o.str.Weights)
		_ = o.vCum.Reset(o.v)
	}
	if o.vWeight == nil {
		o.vWeight = make([]float64, len(o.v))
	}
	// Hoist the importance-weight division out of the draw path: the weight
	// is a pure function of the cached v.
	for j, vj := range o.v {
		o.vWeight[j] = o.str.Weights[j] / vj
	}
	o.vFresh = true
	o.rebuilds++
	o.rebuildNanos += time.Since(start).Nanoseconds()
}

// RebuildStats reports how many times the cached instrumental distribution
// was rebuilt (the dirty-flag cache behind the O(1)-amortized draw path)
// and the total nanoseconds spent rebuilding. Callers serialise against
// draws and commits, as with every other sampler method.
func (o *Sampler) RebuildStats() (count uint64, nanos int64) {
	return o.rebuilds, o.rebuildNanos
}

// Epoch identifies the current instrumental distribution: it increments
// every time a commit or restore invalidates v(t). Outer layers cache
// structures derived from v (e.g. the proposal engine's availability-masked
// sampler) and rebuild them when the epoch moves.
func (o *Sampler) Epoch() uint64 { return o.vEpoch }

// computeV fills o.v with the ε-greedy instrumental distribution of
// Eqn. (12), normalised, using the current estimates.
func (o *Sampler) computeV() {
	k := o.str.K()
	f := o.currentF()
	pi := o.PosteriorMean(o.piBuf)
	total := 0.0
	for j := 0; j < k; j++ {
		v := StratifiedOptimal(o.cfg.Alpha, f, pi[j], o.str.MeanPred[j], o.str.Weights[j])
		o.vStar[j] = v
		total += v
	}
	for j := 0; j < k; j++ {
		q := o.cfg.Epsilon * o.str.Weights[j]
		if total > 0 {
			q += (1 - o.cfg.Epsilon) * o.vStar[j] / total
		} else {
			// Degenerate v*: fall back to proportional sampling.
			q = o.str.Weights[j]
		}
		o.v[j] = q
	}
}

// StratifiedOptimal evaluates one component of the stratified asymptotically
// optimal instrumental distribution (§4.2.3), up to normalisation:
//
//	v*_k ∝ ω_k[(1−α)(1−λ_k)·F·√π_k + λ_k·√(α²F²(1−π_k) + (1−F)²π_k)]
func StratifiedOptimal(alpha, f, pi, lambda, omega float64) float64 {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	if pi < 0 {
		pi = 0
	}
	if pi > 1 {
		pi = 1
	}
	nonPred := (1 - alpha) * (1 - lambda) * f * math.Sqrt(pi)
	pred := lambda * math.Sqrt(alpha*alpha*f*f*(1-pi)+(1-f)*(1-f)*pi)
	return omega * (nonPred + pred)
}

// InstrumentalCached refreshes the cache if needed and returns the sampler's
// internal ε-greedy stratum distribution v(t) without copying. Callers must
// treat it as read-only and must not hold it across a Commit or Restore; it
// exists for the allocation-free proposal engine in package oasis.
func (o *Sampler) InstrumentalCached() []float64 {
	o.refreshV()
	return o.v
}

// DrawStratum draws stratum k* ~ v(t) through the cached prepared sampler
// and returns it with the importance weight ω_k*/v_k* frozen at draw time
// (Algorithm 3 line 6). It cannot fail: a well-formed sampler always has a
// strictly positive v(t). The caller picks the pair within the stratum
// (Algorithm 3 line 5) with Rand. v(t) is recomputed only if a commit or
// restore happened since the last draw — amortized O(1) per draw, O(log K)
// worst case, zero allocations — and the stratum sequence is bit-for-bit
// identical to rebuilding v and inverse-CDF-scanning it on every call, the
// unoptimized sequential Algorithm 3 (see TestGoldenSequence).
func (o *Sampler) DrawStratum() (int, float64) {
	o.refreshV()
	kStar := o.vCum.Draw(o.rng)
	return kStar, o.vWeight[kStar]
}

// Rand exposes the sampler's random stream so that the proposal engine in
// package oasis draws from the single per-sampler sequence (keeping runs
// reproducible from one seed). Do not use it from other goroutines.
func (o *Sampler) Rand() *rng.RNG { return o.rng }

// Commit folds the label of a drawn pair into the sampler: the Beta
// posterior update of Algorithm 3 line 9 and the AIS estimate update of
// line 11. Draws may be committed in any order and at any later time; the
// importance weight was frozen when the draw was made.
func (o *Sampler) Commit(d sampler.Draw, label bool) {
	o.iterations++
	// The posterior and the running estimate are about to change, so the
	// cached v(t) (and everything derived from it) goes stale.
	o.invalidateV()
	// Posterior update (line 9): matches increment the match pseudo-count.
	o.labelsSeen[d.Stratum]++
	if label {
		o.count0[d.Stratum]++
	} else {
		o.count1[d.Stratum]++
	}
	o.stratSumW[d.Stratum] += d.Weight
	o.stratSumW2[d.Stratum] += d.Weight * d.Weight
	// Estimate update (line 11).
	o.est.Add(d.Weight, label, o.pool.Preds[d.Pair])
}

// StratumStats copies the per-stratum diagnostic accumulators into the
// given slices (each nil slice allocates; non-nil ones must be length K):
// labelled-draw counts and the Σw/Σw² weight moments by stratum. Callers
// serialise against Commit and Restore like every other sampler method.
func (o *Sampler) StratumStats(draws []int64, sumW, sumW2 []float64) ([]int64, []float64, []float64) {
	k := o.str.K()
	if draws == nil {
		draws = make([]int64, k)
	}
	if sumW == nil {
		sumW = make([]float64, k)
	}
	if sumW2 == nil {
		sumW2 = make([]float64, k)
	}
	for j := 0; j < k; j++ {
		draws[j] = int64(o.labelsSeen[j])
	}
	copy(sumW, o.stratSumW)
	copy(sumW2, o.stratSumW2)
	return draws, sumW, sumW2
}

// Estimate returns the current F̂: the AIS estimate once defined (or the
// posterior plug-in in PosteriorEstimate mode), otherwise the score-based
// initial estimate (the τ=0 term of Algorithm 3 line 11).
func (o *Sampler) Estimate() float64 {
	return o.currentF()
}

// Estimator exposes the underlying AIS estimator for health diagnostics
// (ESS, asymptotic variance). Callers must not mutate it.
func (o *Sampler) Estimator() *estimator.Weighted { return o.est }

// TruePi computes the population per-stratum oracle probabilities π from the
// pool's ground truth (diagnostics; Figure 4b).
func TruePi(p *pool.Pool, s *strata.Strata) []float64 {
	out := make([]float64, s.K())
	for k := range out {
		members := s.Members(k)
		sum := 0.0
		for _, i := range members {
			sum += p.TruthProb[i]
		}
		out[k] = sum / float64(len(members))
	}
	return out
}

// TrueOptimalV computes the population optimal stratified instrumental
// distribution v* from ground truth: Eqn. (5) with the true F_α and true
// π_k (diagnostics; Figure 4c–d). The result is normalised.
func TrueOptimalV(p *pool.Pool, s *strata.Strata, alpha float64) []float64 {
	f := p.TrueFMeasure(alpha)
	if math.IsNaN(f) {
		f = 0
	}
	pi := TruePi(p, s)
	out := make([]float64, s.K())
	total := 0.0
	for k := range out {
		out[k] = StratifiedOptimal(alpha, f, pi[k], s.MeanPred[k], s.Weights[k])
		total += out[k]
	}
	if total > 0 {
		for k := range out {
			out[k] /= total
		}
		return out
	}
	// Degenerate pools (e.g. F = 1 with pure strata) have identically zero
	// v*: the estimator has no asymptotic variance to minimise and any
	// instrumental distribution is optimal. Return the proportional one.
	copy(out, s.Weights)
	return out
}
