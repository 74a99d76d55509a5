package oasis

// The OASIS model of the paper's §4 (Algorithms 2 and 3), the half of the
// Sampler that the proposal engine in oasis.go draws from and commits into:
//
//  1. Each stratum k carries a latent match probability π_k with a Beta
//     prior initialised from the stratum's mean (probability-mapped) score
//     (Algorithm 2); oracle labels update independent Beta posteriors
//     (Eqn. 10–11).
//  2. The stratified asymptotically optimal instrumental distribution v*
//     (the stratified Eqn. 5) is recomputed from the current estimates F̂
//     and π̂, mixed ε-greedily with the stratum weights ω for positivity
//     (Eqn. 12), and each draw takes stratum k* ~ v.
//  3. The F-measure is estimated by the bias-corrected AIS estimator
//     (Eqn. 3) with importance weights w = ω_k / v_k (Algorithm 3 line 6).
//
// The ε-greedy mixture keeps every stratum reachable, which bounds the
// importance weights by 1/ε and yields the consistency guarantee of
// Theorem 3; the convergence tests check it empirically.

import (
	"fmt"
	"time"

	"oasis/internal/rng"
	"oasis/internal/strata"
)

// initModel runs Algorithm 2: the initial estimates π̂(0) and F̂(0) from
// the strata's scores, and the prior Γ(0) = η[π̂(0); 1−π̂(0)] (Algorithm 3
// line 1).
func (s *Sampler) initModel() {
	str := s.str
	// π̂(0)_k ← mean probability-mapped score of stratum k (lines 2–5), kept
	// strictly inside (0,1) so the Beta prior is proper.
	const pad = 1e-4
	for j := range s.piInit {
		s.piInit[j] = min(max(str.MeanProbScore[j], pad), 1-pad)
	}
	// F̂(0) from π̂(0) and λ (line 8).
	var num, predMass, trueMass float64
	for j, pi := range s.piInit {
		w := str.Weights[j]
		num += w * pi * str.MeanPred[j]
		predMass += w * str.MeanPred[j]
		trueMass += w * pi
	}
	if den := s.alpha*predMass + (1-s.alpha)*trueMass; den > 0 {
		s.fInit = min(num/den, 1)
	}
	for j, pi := range s.piInit {
		s.prior0[j] = s.eta * pi
		s.prior1[j] = s.eta * (1 - pi)
	}
}

// posteriorMean writes the current posterior mean π̂(t) (Eqn. 11) into dst,
// applying the Remark 4 prior decay — prior pseudo-counts down-weighted by
// 1/(1+n_k) as labels arrive — unless NoPriorDecay is set, and returns dst.
// A nil dst allocates.
func (s *Sampler) posteriorMean(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, s.str.K())
	}
	for j := range dst {
		p0, p1 := s.prior0[j], s.prior1[j]
		if s.priorDecay && s.labelsSeen[j] > 0 {
			f := 1 / float64(1+s.labelsSeen[j])
			p0 *= f
			p1 *= f
		}
		a := p0 + s.count0[j]
		b := p1 + s.count1[j]
		dst[j] = a / (a + b)
	}
	return dst
}

// pluginF computes the stratified posterior plug-in estimate of F from the
// current posterior means (Algorithm 2 line 8 with π̂(t) in place of π̂(0)).
func (s *Sampler) pluginF() float64 {
	pi := s.posteriorMean(s.piBuf)
	var num, predMass, trueMass float64
	for j := range pi {
		w := s.str.Weights[j]
		num += w * pi[j] * s.str.MeanPred[j]
		predMass += w * s.str.MeanPred[j]
		trueMass += w * pi[j]
	}
	den := s.alpha*predMass + (1-s.alpha)*trueMass
	if den <= 0 {
		return s.fInit
	}
	return min(num/den, 1)
}

// currentF returns the working F̂ used to build v(t) and reported by
// Estimate: the AIS estimate when defined (or the posterior plug-in in
// PosteriorEstimate mode), otherwise the initial score-based guess — the
// τ=0 term of Algorithm 3 line 11.
func (s *Sampler) currentF() float64 {
	if s.posteriorEstimate {
		return s.pluginF()
	}
	if s.est.Defined() {
		return s.est.Estimate()
	}
	return s.fInit
}

// invalidateV marks the cached instrumental distribution, and the
// availability mask over it, stale. Every mutation of the posterior or
// estimator state must call it.
func (s *Sampler) invalidateV() {
	s.vFresh = false
	s.maskDirty = true
}

// refreshV rebuilds v(t), the prepared stratum sampler over it and the
// per-stratum importance weights if (and only if) the posterior changed
// since the last rebuild. v(t) depends only on the Beta posterior and the
// running estimate, both of which change exactly when a label is committed
// or a snapshot restored, so a batch of draws with no intervening commit
// pays for one rebuild: amortized O(1) per draw, zero allocations.
func (s *Sampler) refreshV() {
	if s.vFresh {
		return
	}
	start := time.Now()
	s.computeV()
	// v is strictly positive (ε-greedy mixture over non-empty strata), so
	// Reset cannot fail; it reuses vCum's buffer after the first rebuild.
	if err := s.vCum.Reset(s.v); err != nil {
		// Unreachable for a well-formed sampler; fall back to a proportional
		// distribution rather than panicking in a serving path.
		copy(s.v, s.str.Weights)
		_ = s.vCum.Reset(s.v)
	}
	// Hoist the importance-weight division out of the draw path: the weight
	// is a pure function of the cached v.
	for j, vj := range s.v {
		s.vWeight[j] = s.str.Weights[j] / vj
	}
	s.vFresh = true
	s.rebuilds++
	s.rebuildNanos += time.Since(start).Nanoseconds()
}

// computeV fills s.v with the ε-greedy instrumental distribution of
// Eqn. (12), normalised, using the current estimates.
func (s *Sampler) computeV() {
	f := s.currentF()
	pi := s.posteriorMean(s.piBuf)
	total := 0.0
	for j := range pi {
		v := strata.StratifiedOptimal(s.alpha, f, pi[j], s.str.MeanPred[j], s.str.Weights[j])
		s.vStar[j] = v
		total += v
	}
	for j := range pi {
		q := s.epsilon * s.str.Weights[j]
		if total > 0 {
			q += (1 - s.epsilon) * s.vStar[j] / total
		} else {
			// Degenerate v*: fall back to proportional sampling.
			q = s.str.Weights[j]
		}
		s.v[j] = q
	}
}

// instrumental refreshes the cache if needed and returns v(t) without
// copying. Callers treat it as read-only and do not hold it across a
// commit or restore.
func (s *Sampler) instrumental() []float64 {
	s.refreshV()
	return s.v
}

// drawStratum draws stratum k* ~ v(t) through the cached prepared sampler
// and returns it with the importance weight ω_k*/v_k* frozen at draw time
// (Algorithm 3 line 6). The stratum sequence is bit-for-bit identical to
// rebuilding v and inverse-CDF-scanning it on every call, the unoptimized
// sequential Algorithm 3 (see TestGoldenSequence).
func (s *Sampler) drawStratum() (int, float64) {
	s.refreshV()
	k := s.vCum.Draw(s.rng)
	return k, s.vWeight[k]
}

// fold applies one weighted draw of pair, from stratum k with the
// importance weight frozen when it was drawn, now that the pair's label is
// known: the Beta posterior update of Algorithm 3 line 9 and the AIS
// estimate update of line 11.
func (s *Sampler) fold(pair, k int, weight float64, label bool) {
	s.invalidateV()
	s.labelsSeen[k]++
	if label {
		s.count0[k]++
	} else {
		s.count1[k]++
	}
	// Per-stratum weight moments feed the convergence diagnostics
	// (stratum-local ESS, weight-mass shares, allocation skew).
	s.stratSumW[k] += weight
	s.stratSumW2[k] += weight * weight
	s.est.Add(weight, label, s.preds[pair])
}

// estimatorState captures the AIS estimator's accumulated sums (Eqn. 3)
// plus the higher-order weight moments backing the runtime health gauges
// (ESS, asymptotic variance). The moment fields are omitempty so that
// snapshots written before they existed still decode: they restore as
// zeros, which the estimator reports as "health unknown" without
// affecting the estimate itself.
type estimatorState struct {
	Num  float64 `json:"num"`
	Pred float64 `json:"pred"`
	True float64 `json:"true"`
	N    int     `json:"n"`

	SumW  float64 `json:"sumW,omitempty"`
	SumW2 float64 `json:"sumW2,omitempty"`
	YY    float64 `json:"yy,omitempty"`
	YZ    float64 `json:"yz,omitempty"`
	ZZ    float64 `json:"zz,omitempty"`
}

// modelState is the model's part of a SamplerState: the Beta posteriors,
// the initial estimates, the estimator and the random stream. Together
// with the pool, the stratification and the Options — all deterministic
// inputs — it reconstructs the model bit-for-bit.
type modelState struct {
	Prior0     []float64      `json:"prior0"`
	Prior1     []float64      `json:"prior1"`
	Count0     []float64      `json:"count0"`
	Count1     []float64      `json:"count1"`
	LabelsSeen []int64        `json:"labelsSeen"`
	PiInit     []float64      `json:"piInit"`
	FInit      float64        `json:"fInit"`
	Estimator  estimatorState `json:"estimator"`
	// Iterations counts the weighted terms folded in, which is always the
	// estimator's N; it is written for snapshot compatibility and ignored
	// on restore.
	Iterations int       `json:"iterations"`
	RNG        rng.State `json:"rng"`

	// Per-stratum weight moments behind the convergence diagnostics.
	// Omitempty: snapshots from before these existed restore as zeros, so
	// the per-stratum ESS reads as unknown until fresh labels arrive while
	// the estimate and posterior are unaffected.
	StratSumW  []float64 `json:"strataSumW,omitempty"`
	StratSumW2 []float64 `json:"strataSumW2,omitempty"`
}

// modelSnapshot captures the model's current state.
func (s *Sampler) modelSnapshot() *modelState {
	num, pred, true_ := s.est.Sums()
	sumW, sumW2, yy, yz, zz := s.est.Moments()
	return &modelState{
		Prior0:     append([]float64(nil), s.prior0...),
		Prior1:     append([]float64(nil), s.prior1...),
		Count0:     append([]float64(nil), s.count0...),
		Count1:     append([]float64(nil), s.count1...),
		LabelsSeen: append([]int64(nil), s.labelsSeen...),
		PiInit:     append([]float64(nil), s.piInit...),
		FInit:      s.fInit,
		Estimator: estimatorState{
			Num: num, Pred: pred, True: true_, N: s.est.N(),
			SumW: sumW, SumW2: sumW2, YY: yy, YZ: yz, ZZ: zz,
		},
		Iterations: s.est.N(),
		RNG:        s.rng.State(),
		StratSumW:  append([]float64(nil), s.stratSumW...),
		StratSumW2: append([]float64(nil), s.stratSumW2...),
	}
}

// restoreModel overwrites the model from a snapshot taken on a sampler with
// the same pool, stratification and Options. It validates the snapshot
// before mutating anything, and the random stream resumes exactly where the
// snapshot left off.
func (s *Sampler) restoreModel(st *modelState) error {
	k := s.str.K()
	if len(st.Prior0) != k || len(st.Prior1) != k ||
		len(st.Count0) != k || len(st.Count1) != k ||
		len(st.LabelsSeen) != k || len(st.PiInit) != k ||
		// The per-stratum moments are optional (older snapshots) but must
		// match the stratification when present.
		(st.StratSumW != nil && len(st.StratSumW) != k) ||
		(st.StratSumW2 != nil && len(st.StratSumW2) != k) {
		return fmt.Errorf("oasis: snapshot does not match the sampler's %d strata", k)
	}
	if err := s.rng.Restore(st.RNG); err != nil {
		return err
	}
	copy(s.prior0, st.Prior0)
	copy(s.prior1, st.Prior1)
	copy(s.count0, st.Count0)
	copy(s.count1, st.Count1)
	copy(s.labelsSeen, st.LabelsSeen)
	copy(s.piInit, st.PiInit)
	s.fInit = st.FInit
	s.est.SetSums(st.Estimator.Num, st.Estimator.Pred, st.Estimator.True, st.Estimator.N)
	s.est.SetMoments(st.Estimator.SumW, st.Estimator.SumW2, st.Estimator.YY, st.Estimator.YZ, st.Estimator.ZZ)
	// copy from a nil slice copies nothing, so clear first.
	clear(s.stratSumW)
	clear(s.stratSumW2)
	copy(s.stratSumW, st.StratSumW)
	copy(s.stratSumW2, st.StratSumW2)
	s.invalidateV()
	return nil
}
