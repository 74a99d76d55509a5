// Package oracle implements the labelling oracle of Definition 4: a
// randomised function returning Boolean labels whose distribution is
// parametrised by per-pair probabilities p(1|z). The paper's label-budget
// accounting (footnote 5), under which a pair charges the budget only the
// first time its label is queried, lives in sampler.Run.
package oracle

import "oasis/internal/rng"

// Oracle returns a (possibly random) Boolean label for pool item i.
type Oracle interface {
	Label(i int) bool
}

// Deterministic is the paper's experimental regime: a fixed ground-truth
// label per pair, i.e. p(1|z) ∈ {0, 1}.
type Deterministic struct {
	Labels []bool
}

// NewDeterministic wraps fixed labels as an oracle.
func NewDeterministic(labels []bool) *Deterministic {
	return &Deterministic{Labels: labels}
}

// Label returns the fixed label of item i.
func (o *Deterministic) Label(i int) bool { return o.Labels[i] }

// Bernoulli is the general noisy oracle: each query of item i draws an
// independent Bernoulli(p_i) label, matching the randomised-oracle model the
// consistency theory covers.
type Bernoulli struct {
	Probs []float64
	rng   *rng.RNG
}

// NewBernoulli builds a noisy oracle with per-item probabilities and its own
// random stream.
func NewBernoulli(probs []float64, r *rng.RNG) *Bernoulli {
	return &Bernoulli{Probs: probs, rng: r}
}

// Label draws a fresh Bernoulli(p_i) label.
func (o *Bernoulli) Label(i int) bool { return o.rng.Bernoulli(o.Probs[i]) }

// FromProbs returns the natural oracle for a probability vector: a
// Deterministic oracle if every probability is exactly 0 or 1, otherwise a
// Bernoulli oracle using r.
func FromProbs(probs []float64, r *rng.RNG) Oracle {
	deterministic := true
	for _, p := range probs {
		if p != 0 && p != 1 {
			deterministic = false
			break
		}
	}
	if deterministic {
		labels := make([]bool, len(probs))
		for i, p := range probs {
			labels[i] = p == 1
		}
		return NewDeterministic(labels)
	}
	return NewBernoulli(probs, r)
}
