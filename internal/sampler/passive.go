package sampler

import (
	"oasis/internal/estimator"
	"oasis/internal/oracle"
	"oasis/internal/pool"
	"oasis/internal/rng"
	"oasis/internal/strata"
)

// Passive samples record pairs uniformly at random with replacement and
// estimates F with the plain statistic of Eqn. (1) — the paper's Passive
// baseline. Under extreme class imbalance it needs O(imbalance) draws per
// match found, which is the inefficiency OASIS exists to remove.
type Passive struct {
	pool *pool.Pool
	est  *estimator.Weighted
	rng  *rng.RNG
}

// NewPassive builds a passive sampler for p estimating F_α.
func NewPassive(p *pool.Pool, alpha float64, r *rng.RNG) *Passive {
	return &Passive{
		pool: p,
		est:  estimator.NewWeighted(alpha),
		rng:  r,
	}
}

// Name identifies the method in reports.
func (s *Passive) Name() string { return "Passive" }

// Step draws one pair uniformly, labels it, and updates the estimate.
func (s *Passive) Step(b *oracle.Budgeted) error {
	i := s.rng.Intn(s.pool.N())
	label, err := b.TryLabel(i)
	if err != nil {
		return err
	}
	s.est.Add(1, label, s.pool.Preds[i])
	return nil
}

// Estimate returns the current F̂ (NaN until a match or predicted match has
// been sampled — exactly the paper's "undefined until first positive mass"
// behaviour).
func (s *Passive) Estimate() float64 { return s.est.Estimate() }

// Stratified is the proportional stratified baseline (§6.2, after Druck &
// McCallum): strata are drawn with probability ω_k = |P_k|/N, pairs uniformly
// within the stratum, and F is estimated with the stratified estimator. The
// sampling is *not* biased toward informative strata — which is the paper's
// explanation for its weak performance.
type Stratified struct {
	pool *pool.Pool
	str  *strata.Strata
	draw *rng.Cumulative
	est  *estimator.Stratified
	rng  *rng.RNG
}

// NewStratified builds the stratified baseline over a stratification of p,
// reading its layout in place.
func NewStratified(p *pool.Pool, s *strata.Strata, alpha float64, r *rng.RNG) (*Stratified, error) {
	draw, err := rng.NewCumulative(s.Weights)
	if err != nil {
		return nil, err
	}
	return &Stratified{
		pool: p,
		str:  s,
		draw: draw,
		est:  estimator.NewStratified(alpha, s.Weights, s.MeanPred),
		rng:  r,
	}, nil
}

// Name identifies the method in reports.
func (s *Stratified) Name() string { return "Stratified" }

// Step draws a stratum proportionally, a pair uniformly within it, labels it
// and updates the stratified estimate.
func (s *Stratified) Step(b *oracle.Budgeted) error {
	k := s.draw.Draw(s.rng)
	members := s.str.Members(k)
	i := int(members[s.rng.Intn(len(members))])
	label, err := b.TryLabel(i)
	if err != nil {
		return err
	}
	s.est.Add(k, label, s.pool.Preds[i])
	return nil
}

// Estimate returns the current stratified F̂.
func (s *Stratified) Estimate() float64 { return s.est.Estimate() }
