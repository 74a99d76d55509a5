// Package stats provides the statistical primitives the OASIS library is
// built on: histograms (used by the Cumulative-√F stratifier), streaming
// moment accumulators, and the KL divergence between discrete
// distributions.
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by routines that require at least one observation.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or NaN for empty input.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MeanAbs returns the mean of |xs[i]|.
func MeanAbs(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += math.Abs(x)
	}
	return s / float64(len(xs))
}

// MinMax returns the minimum and maximum of xs. It returns an error on empty
// input.
func MinMax(xs []float64) (min, max float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max, nil
}

// Online accumulates streaming first and second moments using Welford's
// algorithm. The zero value is ready to use.
type Online struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (o *Online) Add(x float64) {
	o.n++
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// N returns the number of observations so far.
func (o *Online) N() int { return o.n }

// Mean returns the running mean (NaN if no observations).
func (o *Online) Mean() float64 {
	if o.n == 0 {
		return math.NaN()
	}
	return o.mean
}

// Variance returns the running population variance (NaN if no observations).
func (o *Online) Variance() float64 {
	if o.n == 0 {
		return math.NaN()
	}
	return o.m2 / float64(o.n)
}

// StdDev returns the running population standard deviation.
func (o *Online) StdDev() float64 { return math.Sqrt(o.Variance()) }

// Histogram is a fixed-width binning of scalar observations over [Min, Max].
// Values outside the range are clamped into the boundary bins, matching the
// behaviour assumed by the CSF stratifier (Algorithm 1 of the paper).
type Histogram struct {
	Min, Max float64
	Counts   []int
	width    float64
	total    int
}

// NewHistogram builds a histogram of xs with the given number of bins
// spanning [min(xs), max(xs)]. If all values are equal the single degenerate
// bin holds everything.
func NewHistogram(xs []float64, bins int) (*Histogram, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	if bins <= 0 {
		return nil, errors.New("stats: histogram needs at least one bin")
	}
	lo, hi, err := MinMax(xs)
	if err != nil {
		return nil, err
	}
	h := &Histogram{Min: lo, Max: hi, Counts: make([]int, bins)}
	if hi > lo {
		h.width = (hi - lo) / float64(bins)
	}
	for _, x := range xs {
		h.Counts[h.BinOf(x)]++
		h.total++
	}
	return h, nil
}

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.Counts) }

// Total returns the number of binned observations.
func (h *Histogram) Total() int { return h.total }

// BinOf returns the bin index of x, clamping to [0, Bins()-1].
func (h *Histogram) BinOf(x float64) int {
	if h.width == 0 {
		return 0
	}
	i := int((x - h.Min) / h.width)
	if i < 0 {
		return 0
	}
	if i >= len(h.Counts) {
		return len(h.Counts) - 1
	}
	return i
}

// Normalize converts p (unnormalised non-negative weights) into a probability
// vector in place and returns it. It returns an error if the sum is not
// positive and finite.
func Normalize(p []float64) ([]float64, error) {
	s := 0.0
	for _, x := range p {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, errors.New("stats: negative or non-finite weight")
		}
		s += x
	}
	if s <= 0 || math.IsInf(s, 0) {
		return nil, errors.New("stats: weights sum to zero")
	}
	for i := range p {
		p[i] /= s
	}
	return p, nil
}

// KLDivergence returns D(p ‖ q) = Σ p_i log(p_i/q_i) in nats for two discrete
// distributions of equal length. Terms with p_i = 0 contribute zero. If some
// p_i > 0 has q_i = 0 the divergence is +Inf. Inputs need not be normalised;
// they are normalised internally without mutating the arguments.
func KLDivergence(p, q []float64) (float64, error) {
	if len(p) != len(q) || len(p) == 0 {
		return 0, errors.New("stats: KL requires equal-length non-empty distributions")
	}
	pn, err := Normalize(append([]float64(nil), p...))
	if err != nil {
		return 0, err
	}
	qn, err := Normalize(append([]float64(nil), q...))
	if err != nil {
		return 0, err
	}
	d := 0.0
	for i := range pn {
		if pn[i] == 0 {
			continue
		}
		if qn[i] == 0 {
			return math.Inf(1), nil
		}
		d += pn[i] * math.Log(pn[i]/qn[i])
	}
	if d < 0 {
		d = 0 // guard tiny negative round-off
	}
	return d, nil
}

// Sigmoid returns the logistic function 1/(1+e^-x).
func Sigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}
