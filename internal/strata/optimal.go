package strata

import (
	"math"

	"oasis/internal/pool"
)

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

// TruePi computes the population per-stratum oracle probabilities π from the
// pool's ground truth (diagnostics; Figure 4b).
func TruePi(p *pool.Pool, s *Strata) []float64 {
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
func TrueOptimalV(p *pool.Pool, s *Strata, alpha float64) []float64 {
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
