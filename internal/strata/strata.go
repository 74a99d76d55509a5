// Package strata partitions an evaluation pool into score strata. It
// implements the Cumulative √F (CSF) method of Dalenius & Hodges used by the
// paper (Algorithm 1) and the equal-size alternative mentioned in §4.2.1,
// together with the per-stratum statistics OASIS needs: weights ω_k, mean
// predictions λ_k and mean (probability-mapped) scores.
package strata

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"oasis/internal/pool"
	"oasis/internal/stats"
)

// Strata is a disjoint partition of pool indices {0..N-1} into K strata,
// stored once as a permutation of the pool in stratum order: 8 bytes per
// pair plus O(K). Every reader of stratum membership — the OASIS draw, the
// proposal engine's slots, the stratified baseline — reads this layout
// directly rather than keeping a copy. A Strata is immutable once built and
// may be shared.
type Strata struct {
	// Perm lists every pool index once, stratum by stratum: stratum k
	// occupies Perm[Off[k]:Off[k+1]], in ascending pool-index order.
	Perm []int32
	// Off holds the K+1 stratum offsets into Perm (Off[0] = 0, Off[K] = N).
	Off []int32
	// Pos is the inverse permutation: Perm[Pos[i]] == i.
	Pos []int32
	// Weights[k] = ω_k = |P_k| / N.
	Weights []float64
	// MeanScore[k] is the mean raw score within stratum k.
	MeanScore []float64
	// MeanProbScore[k] is the mean probability-mapped score within stratum k
	// (Algorithm 2 lines 2–5), used for initialising π̂(0).
	MeanProbScore []float64
	// MeanPred[k] = λ_k is the mean predicted label within stratum k.
	MeanPred []float64
}

// K returns the number of strata.
func (s *Strata) K() int { return len(s.Weights) }

// N returns the number of pool items covered.
func (s *Strata) N() int { return len(s.Perm) }

// Size returns |P_k|.
func (s *Strata) Size(k int) int { return int(s.Off[k+1] - s.Off[k]) }

// Members returns the pool indices of stratum k, ascending — a read-only
// view into Perm.
func (s *Strata) Members(k int) []int32 { return s.Perm[s.Off[k]:s.Off[k+1]] }

// StratumOf returns the stratum holding pool index i, by binary search of
// its position over Off: O(log K), for the cold paths (release, replay,
// restore). The draw paths never need it.
func (s *Strata) StratumOf(i int) int {
	pos := s.Pos[i]
	return sort.Search(s.K(), func(k int) bool { return s.Off[k+1] > pos })
}

// MemBytes returns the resident size of the stratification: the three int32
// layout slices and the four per-stratum float64 columns.
func (s *Strata) MemBytes() int64 {
	return 4*int64(len(s.Perm)+len(s.Off)+len(s.Pos)) +
		8*int64(len(s.Weights)+len(s.MeanScore)+len(s.MeanProbScore)+len(s.MeanPred))
}

// ErrNoStrata is returned when a requested stratification is degenerate.
var ErrNoStrata = errors.New("strata: cannot build strata")

// fromAllocation builds a Strata from an assignment vector (assign[i] is pool
// item i's stratum in [0, k)), refusing an assignment out of range, and lays
// it out with layout. It takes ownership of assign, which becomes Pos.
func fromAllocation(p *pool.Pool, assign []int32, k int) (*Strata, error) {
	if k <= 0 {
		return nil, ErrNoStrata
	}
	sizes := make([]int32, k)
	for _, a := range assign {
		if a < 0 || int(a) >= k {
			return nil, fmt.Errorf("strata: assignment %d out of range [0,%d)", a, k)
		}
		sizes[a]++
	}
	return layout(p, assign, sizes)
}

// layout builds a Strata from each pair's stratum (assign[i] in
// [0, len(sizes))) and the strata's sizes, and computes all per-stratum
// statistics, dropping empty strata (Algorithm 1 line 19). A stable
// counting sort lays the pool out in stratum order, so each stratum keeps
// ascending pool-index order. It takes ownership of assign, which is
// overwritten to become Pos.
func layout(p *pool.Pool, assign, sizes []int32) (*Strata, error) {
	if len(assign) > math.MaxInt32 {
		return nil, fmt.Errorf("strata: pool of %d pairs exceeds the int32 layout", len(assign))
	}
	k := len(sizes)
	// Number the non-empty strata in order; next[a] is the first free slot
	// in Perm for items assigned to a.
	off := make([]int32, 1, k+1)
	next := make([]int32, k)
	for a, n := range sizes {
		next[a] = off[len(off)-1]
		if n > 0 {
			off = append(off, next[a]+n)
		}
	}
	kept := len(off) - 1
	if kept == 0 {
		return nil, ErrNoStrata
	}
	// One ascending pass over the pool places every pair and adds it to its
	// stratum's sums. Each stratum's pairs arrive in ascending pool order,
	// the order of Members, so every sum has the bits of a walk over the
	// stratum. The calibration test stays out of the per-pair loop, and the
	// loops do not branch on a pair's prediction or on the sign of its
	// logistic argument, which pool order does not group the way stratum
	// order does.
	perm := make([]int32, len(assign))
	sums := make([]stratumSums, k)
	scores, preds := p.Scores[:len(assign)], p.Preds[:len(assign)]
	if p.Probabilistic {
		for i, a := range assign {
			pos := next[a]
			next[a] = pos + 1
			perm[pos] = int32(i)
			assign[i] = pos
			sc := scores[i]
			acc := &sums[a]
			acc.score += sc
			acc.prob += pool.CalibratedProb(sc)
			acc.preds += b2i(preds[i])
		}
	} else {
		tau := p.Threshold
		for i, a := range assign {
			pos := next[a]
			next[a] = pos + 1
			perm[pos] = int32(i)
			assign[i] = pos
			sc := scores[i]
			acc := &sums[a]
			acc.score += sc
			acc.prob += pool.UncalibratedProb(sc, tau)
			acc.preds += b2i(preds[i])
		}
	}
	s := &Strata{
		Perm:          perm,
		Off:           off,
		Pos:           assign,
		Weights:       make([]float64, 0, kept),
		MeanScore:     make([]float64, 0, kept),
		MeanProbScore: make([]float64, 0, kept),
		MeanPred:      make([]float64, 0, kept),
	}
	n := float64(len(assign))
	for a, acc := range sums {
		if sizes[a] == 0 {
			continue
		}
		size := float64(sizes[a])
		s.Weights = append(s.Weights, size/n)
		s.MeanScore = append(s.MeanScore, acc.score/size)
		s.MeanProbScore = append(s.MeanProbScore, acc.prob/size)
		s.MeanPred = append(s.MeanPred, float64(acc.preds)/size)
	}
	return s, nil
}

// stratumSums accumulates one stratum's scores, probability-mapped scores
// and positive predictions.
type stratumSums struct {
	score, prob float64
	preds       int64
}

// b2i is 1 for true and 0 for false; the compiler turns it into a
// zero-extension of the bool, not a branch.
func b2i(b bool) int64 {
	var i int64
	if b {
		i = 1
	}
	return i
}

// CSF stratifies the pool by similarity score with the Cumulative √F method
// (Algorithm 1): build an M-bin histogram of the scores, take the cumulative
// sum of √counts, cut it into targetK equal-width intervals on the CSF
// scale, and map the cut points back to score-scale bin edges. The number of
// returned strata may be smaller than targetK (empty strata are removed, and
// coarse histograms may merge cuts — the algorithm does not guarantee
// K = K̃). It is linear in the pool: the histogram records each pair's bin
// as it counts it, the strata's sizes come from the bin counts, and the
// layout and means take one more pass. The pool must already be valid
// (pools are validated where they enter the program); only an empty pool is
// refused here.
func CSF(p *pool.Pool, targetK, bins int) (*Strata, error) {
	if p.N() == 0 {
		return nil, pool.ErrEmptyPool
	}
	if targetK <= 0 {
		return nil, ErrNoStrata
	}
	if bins <= 0 {
		bins = defaultBins(p.N(), targetK)
	}
	assign := make([]int32, p.N())
	hist, err := stats.NewHistogram(p.Scores, bins, assign)
	if err != nil {
		return nil, err
	}
	// Cumulative √F over histogram bins (lines 2–3).
	csf := make([]float64, hist.Bins())
	acc := 0.0
	for i, c := range hist.Counts {
		acc += math.Sqrt(float64(c))
		csf[i] = acc
	}
	total := csf[len(csf)-1]
	if total == 0 {
		return nil, ErrNoStrata
	}
	// Equal-width cut points on the CSF scale (lines 4–7), then map each
	// histogram bin to the stratum whose CSF interval contains it
	// (lines 8–18, expressed as a direct mapping).
	width := total / float64(targetK)
	binStratum := make([]int32, hist.Bins())
	sizes := make([]int32, targetK)
	for i := range binStratum {
		k := int(csf[i] / width)
		if csf[i] > 0 && csf[i]/width == float64(k) {
			// Exact boundary: belongs to the interval it closes.
			k--
		}
		if k >= targetK {
			k = targetK - 1
		}
		if k < 0 {
			k = 0
		}
		binStratum[i] = int32(k)
		sizes[k] += int32(hist.Counts[i])
	}
	for i, b := range assign {
		assign[i] = binStratum[b]
	}
	return layout(p, assign, sizes)
}

// EqualSize stratifies the pool into targetK strata of (nearly) equal size by
// sorting on score and cutting into contiguous rank ranges — the "equal size
// method" the paper attributes to Druck & McCallum.
func EqualSize(p *pool.Pool, targetK int) (*Strata, error) {
	if p.N() == 0 {
		return nil, pool.ErrEmptyPool
	}
	if targetK <= 0 {
		return nil, ErrNoStrata
	}
	n := p.N()
	if targetK > n {
		targetK = n
	}
	// Sort a keyed slice rather than an index slice with a closure: each
	// compare reads adjacent memory instead of chasing two indirections, and
	// slices.SortStableFunc avoids the reflection-based swaps of
	// sort.SliceStable. Stability preserves the original index order within
	// equal scores, so the assignment is bit-identical to the index sort.
	type rankedItem struct {
		score float64
		idx   int
	}
	order := make([]rankedItem, n)
	for i := range order {
		order[i] = rankedItem{score: p.Scores[i], idx: i}
	}
	slices.SortStableFunc(order, func(a, b rankedItem) int {
		// Scores are finite (checked where the pool entered the program),
		// so '<' is a total order here and the three-way compare cannot
		// misbehave on NaN.
		switch {
		case a.score < b.score:
			return -1
		case a.score > b.score:
			return 1
		default:
			return 0
		}
	})
	assign := make([]int32, n)
	for rank, it := range order {
		k := rank * targetK / n
		if k >= targetK {
			k = targetK - 1
		}
		assign[it.idx] = int32(k)
	}
	return fromAllocation(p, assign, targetK)
}

// defaultBins picks the histogram resolution for CSF: enough bins to resolve
// targetK strata finely, bounded by the pool size.
func defaultBins(n, targetK int) int {
	bins := 100 * targetK
	if bins > n {
		bins = n
	}
	if bins < targetK {
		bins = targetK
	}
	return bins
}
