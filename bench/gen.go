package main

import (
	"math/rand/v2"
)

// poolInput is one generated evaluation pool: classifier scores, the
// classifier's predictions, and the ground-truth labels the simulated
// labellers answer with.
type poolInput struct {
	scores []float64
	preds  []bool
	truth  []bool
}

// genPool draws an entity-resolution-shaped pool of n pairs: about 2% of
// pairs score high and the rest near zero, scores are calibrated (the true
// label of a pair with score s is a Bernoulli(s) draw) and the prediction is
// s >= 0.5. The same seed always yields the same pool.
func genPool(n int, seed uint64) poolInput {
	r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	p := poolInput{scores: make([]float64, n), preds: make([]bool, n), truth: make([]bool, n)}
	for i := range n {
		u := r.Float64()
		var s float64
		if r.Float64() < 0.02 {
			s = 0.25 + 0.75*(1-u*u)
		} else {
			s = 0.3 * u * u * u
		}
		p.scores[i] = s
		p.preds[i] = s >= 0.5
		p.truth[i] = r.Float64() < s
	}
	return p
}

// trueF is the pool's balanced F-measure (alpha = 0.5) under the ground
// truth.
func (p poolInput) trueF() float64 {
	var tp, fp, fn float64
	for i, pred := range p.preds {
		switch {
		case pred && p.truth[i]:
			tp++
		case pred:
			fp++
		case p.truth[i]:
			fn++
		}
	}
	return 2 * tp / (2*tp + fp + fn)
}

// mix derives an independent 64-bit seed from a base seed and a stream of
// integers (splitmix64 finaliser per step).
func mix(base uint64, parts ...uint64) uint64 {
	h := base
	for _, p := range parts {
		h ^= p + 0x9e3779b97f4a7c15 + h<<6 + h>>2
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}
