// Package pool defines the evaluation pool — the interface between the ER
// pipeline and the sampling/estimation algorithms. A Pool holds, for every
// candidate record pair z in P: the similarity score s(z), the predicted
// label l̂(z) = 1[z ∈ R̂], and the oracle probability p(1|z) from which true
// labels are drawn (Definition 4 of the paper). With a deterministic oracle
// p(1|z) ∈ {0, 1}; the general case supports the noisy oracles the theory
// allows.
//
// Ground-truth population quantities (F-measure, precision, recall) are
// computed in expectation over the oracle distribution, which coincides with
// the usual count-based definitions for deterministic oracles.
package pool

import (
	"errors"
	"fmt"
	"math"
)

// Pool is an evaluation pool of N record pairs.
type Pool struct {
	// Name labels the pool in reports.
	Name string
	// Scores holds the similarity score of each pair.
	Scores []float64
	// Preds holds the predicted label of each pair.
	Preds []bool
	// TruthProb holds the oracle probability p(1|z) of each pair, or is nil
	// for a pool without ground truth (every pool the service evaluates).
	// The population measures below need it.
	TruthProb []float64
	// Probabilistic records whether Scores are (approximately) calibrated
	// probabilities in [0, 1] (Definition 3). Uncalibrated scores are mapped
	// through a logistic transform wherever probabilities are needed.
	Probabilistic bool
	// Threshold is the score threshold τ used by the logistic mapping of
	// uncalibrated scores (Algorithm 2 line 4). For margin classifiers this
	// is 0, the decision boundary.
	Threshold float64
}

// ErrEmptyPool is returned for pools with no pairs.
var ErrEmptyPool = errors.New("pool: empty pool")

// Validate checks internal consistency. A pool is validated once, where it
// enters the program; the stratifiers trust what they get.
func (p *Pool) Validate() error {
	n := len(p.Scores)
	if n == 0 {
		return ErrEmptyPool
	}
	if len(p.Preds) != n || (p.TruthProb != nil && len(p.TruthProb) != n) {
		return fmt.Errorf("pool: length mismatch: scores=%d preds=%d truth=%d",
			n, len(p.Preds), len(p.TruthProb))
	}
	for i, s := range p.Scores {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return fmt.Errorf("pool: non-finite score at %d", i)
		}
	}
	for i, q := range p.TruthProb {
		if q < 0 || q > 1 || math.IsNaN(q) {
			return fmt.Errorf("pool: oracle probability out of [0,1] at %d: %v", i, q)
		}
	}
	return nil
}

// N returns the number of pairs in the pool.
func (p *Pool) N() int { return len(p.Scores) }

// NumPredPositives counts pairs with a positive prediction.
func (p *Pool) NumPredPositives() int {
	n := 0
	for _, pr := range p.Preds {
		if pr {
			n++
		}
	}
	return n
}

// ExpectedMatches returns Σ p(1|z), the expected number of true matches.
func (p *Pool) ExpectedMatches() float64 {
	s := 0.0
	for _, q := range p.TruthProb {
		s += q
	}
	return s
}

// ImbalanceRatio returns the expected (#non-match : #match) ratio.
func (p *Pool) ImbalanceRatio() float64 {
	m := p.ExpectedMatches()
	if m == 0 {
		return math.Inf(1)
	}
	return (float64(p.N()) - m) / m
}

// ExpectedConfusion returns the expected TP, FP, FN counts under the oracle
// distribution. For a deterministic oracle these are the exact counts.
func (p *Pool) ExpectedConfusion() (tp, fp, fn float64) {
	for i, q := range p.TruthProb {
		if p.Preds[i] {
			tp += q
			fp += 1 - q
		} else {
			fn += q
		}
	}
	return tp, fp, fn
}

// TrueFMeasure returns the population F-measure target (Eqn. 1 in the limit
// T→∞): TP / (α(TP+FP) + (1−α)(TP+FN)). It returns NaN when undefined
// (no predicted positives and no expected matches).
func (p *Pool) TrueFMeasure(alpha float64) float64 {
	tp, fp, fn := p.ExpectedConfusion()
	den := alpha*(tp+fp) + (1-alpha)*(tp+fn)
	if den == 0 {
		return math.NaN()
	}
	return tp / den
}

// TruePrecision returns the population precision (α = 1).
func (p *Pool) TruePrecision() float64 { return p.TrueFMeasure(1) }

// TrueRecall returns the population recall (α = 0).
func (p *Pool) TrueRecall() float64 { return p.TrueFMeasure(0) }

// ProbScore returns the score of pair i mapped to a probability in [0, 1]
// (Algorithm 2): CalibratedProb if the pool is calibrated, otherwise
// UncalibratedProb around the pool's threshold.
func (p *Pool) ProbScore(i int) float64 {
	if p.Probabilistic {
		return CalibratedProb(p.Scores[i])
	}
	return UncalibratedProb(p.Scores[i], p.Threshold)
}

// CalibratedProb maps a calibrated score to a probability: the score itself,
// clamped to [0, 1].
func CalibratedProb(s float64) float64 {
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// UncalibratedProb maps an uncalibrated score to a probability with the
// logistic transform sigmoid(s − τ). It has the bits of the two-sided form
// (x ≥ 0: 1/(1+e^−x); x < 0: e^x/(1+e^x), with x = s − τ) without its
// branch on the sign of x, which a pass over a pool mispredicts: both sides
// divide by 1 + z with z = e^−|x|, and the sign bit picks the numerator, 1
// or z (at x = −0, z = 1, so either gives ½).
func UncalibratedProb(s, tau float64) float64 {
	x := s - tau
	z := math.Exp(-math.Abs(x))
	neg := uint64(int64(math.Float64bits(x)) >> 63)
	num := math.Float64frombits(math.Float64bits(z)&neg | math.Float64bits(1)&^neg)
	return num / (1 + z)
}
