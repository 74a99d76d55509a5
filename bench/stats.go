package main

import (
	"math"
	"sort"
	"time"
)

// latencies collects one operation's client-observed durations.
type latencies struct {
	d []time.Duration
}

func (l *latencies) add(d time.Duration) { l.d = append(l.d, d) }

func (l *latencies) merge(o *latencies) { l.d = append(l.d, o.d...) }

// summary is a timing distribution as the benchmark reports it: the median,
// the highest percentile that has at least ten samples beyond it (capped at
// p99), and the sample count.
type summary struct {
	N       int     `json:"n"`
	P50Ms   float64 `json:"p50_ms"`
	TailQ   float64 `json:"tail_q"`
	TailMs  float64 `json:"tail_ms"`
	MeanMs  float64 `json:"mean_ms"`
	TotalMs float64 `json:"total_ms"`
}

func (l *latencies) summary() summary {
	s := summary{N: len(l.d)}
	if s.N == 0 {
		return s
	}
	ms := make([]float64, s.N)
	for i, d := range l.d {
		ms[i] = float64(d) / 1e6
		s.TotalMs += ms[i]
	}
	sort.Float64s(ms)
	s.MeanMs = s.TotalMs / float64(s.N)
	s.P50Ms = nearestRank(ms, 0.5)
	if q, ok := tailQuantile(s.N); ok {
		s.TailQ, s.TailMs = q, nearestRank(ms, q)
	}
	return s
}

// tailQuantile applies the percentile rule: p99 needs at least 1000 samples;
// with fewer, report the highest percentile that still has at least ten
// samples beyond it. Below 20 samples not even the median qualifies.
func tailQuantile(n int) (float64, bool) {
	if n < 20 {
		return 0, false
	}
	if n >= 1000 {
		return 0.99, true
	}
	return 1 - 10/float64(n), true
}

// nearestRank returns the q-quantile of sorted values by the nearest-rank
// method: the smallest value with at least a q share of samples at or below
// it.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// quartiles returns the three cut points that divide values into quarters,
// the same way Python's statistics.quantiles(values, n=4) does (its default
// "exclusive" method); a single value is all three.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median returns the middle value (the mean of the two middle values for an
// even count).
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}
