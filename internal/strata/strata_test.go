package strata

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"oasis/internal/pool"
	"oasis/internal/rng"
)

// imbalancedPool builds a pool whose score distribution is heavy-tailed like
// an ER pool: most scores near zero, few near one.
func imbalancedPool(n int, seed uint64) *pool.Pool {
	r := rng.New(seed)
	p := &pool.Pool{
		Name:          "synthetic",
		Scores:        make([]float64, n),
		Preds:         make([]bool, n),
		TruthProb:     make([]float64, n),
		Probabilistic: true,
	}
	for i := 0; i < n; i++ {
		var s float64
		if r.Bernoulli(0.02) { // rare high-score block
			s = 0.5 + 0.5*r.Float64()
		} else {
			s = 0.3 * r.Float64() * r.Float64()
		}
		p.Scores[i] = s
		p.Preds[i] = s > 0.5
		if r.Bernoulli(s) {
			p.TruthProb[i] = 1
		}
	}
	return p
}

// checkPartition verifies strata invariants: Perm is a permutation of the
// pool with Pos its inverse, each stratum non-empty and in ascending pool
// order, StratumOf consistent with Off, weights summing to one, statistics
// in range.
func checkPartition(t *testing.T, p *pool.Pool, s *Strata) {
	t.Helper()
	if s.N() != p.N() || len(s.Pos) != p.N() {
		t.Fatalf("layout covers %d/%d of %d items", s.N(), len(s.Pos), p.N())
	}
	if len(s.Off) != s.K()+1 || s.Off[0] != 0 || int(s.Off[s.K()]) != p.N() {
		t.Fatalf("offsets %v for K=%d, N=%d", s.Off, s.K(), p.N())
	}
	seen := make([]bool, p.N())
	for k := 0; k < s.K(); k++ {
		members := s.Members(k)
		if len(members) == 0 {
			t.Fatalf("empty stratum %d survived", k)
		}
		for j, i := range members {
			if seen[i] {
				t.Fatalf("item %d in two strata", i)
			}
			seen[i] = true
			if j > 0 && members[j-1] >= i {
				t.Fatalf("stratum %d not in ascending pool order at %d", k, j)
			}
			if s.Perm[s.Pos[i]] != i {
				t.Fatalf("Pos[%d]=%d does not invert Perm", i, s.Pos[i])
			}
			if got := s.StratumOf(int(i)); got != k {
				t.Fatalf("StratumOf(%d)=%d but item listed in stratum %d", i, got, k)
			}
		}
		if s.Size(k) != len(members) {
			t.Fatalf("Size(%d) inconsistent", k)
		}
	}
	wsum := 0.0
	for k := range s.Weights {
		wsum += s.Weights[k]
		if s.MeanPred[k] < 0 || s.MeanPred[k] > 1 {
			t.Fatalf("MeanPred[%d] = %v", k, s.MeanPred[k])
		}
		if s.MeanProbScore[k] < 0 || s.MeanProbScore[k] > 1 {
			t.Fatalf("MeanProbScore[%d] = %v", k, s.MeanProbScore[k])
		}
	}
	if math.Abs(wsum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", wsum)
	}
}

// TestFromAllocationLayout pins the counting-sort layout on a small
// assignment with empty strata, which are dropped and renumbered.
func TestFromAllocationLayout(t *testing.T) {
	p := &pool.Pool{
		Scores:    []float64{0.9, 0.1, 0.8, 0.2, 0.5},
		Preds:     []bool{true, false, true, false, false},
		TruthProb: make([]float64, 5),
	}
	s, err := fromAllocation(p, []int32{2, 0, 2, 0, 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, p, s)
	if !slices.Equal(s.Perm, []int32{1, 3, 0, 2, 4}) || !slices.Equal(s.Off, []int32{0, 2, 4, 5}) ||
		!slices.Equal(s.Pos, []int32{2, 0, 3, 1, 4}) {
		t.Fatalf("layout Perm=%v Off=%v Pos=%v", s.Perm, s.Off, s.Pos)
	}
	if !slices.Equal(s.Weights, []float64{0.4, 0.4, 0.2}) || !slices.Equal(s.MeanPred, []float64{0, 1, 0}) {
		t.Fatalf("weights %v, mean preds %v", s.Weights, s.MeanPred)
	}
	if want := int64(4*(5+4+5) + 8*4*3); s.MemBytes() != want {
		t.Fatalf("MemBytes %d, want %d", s.MemBytes(), want)
	}
	if _, err := fromAllocation(p, []int32{0, 1, 5, 0, 0}, 5); err == nil {
		t.Fatal("out-of-range assignment accepted")
	}
}

func TestCSFPartition(t *testing.T) {
	p := imbalancedPool(20000, 1)
	s, err := CSF(p, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, p, s)
	if s.K() < 2 || s.K() > 30 {
		t.Errorf("K = %d, want 2..30", s.K())
	}
}

func TestCSFHeavyTailShape(t *testing.T) {
	// Figure 1's claim: with imbalanced scores, CSF produces very large
	// low-score strata and small high-score strata.
	p := imbalancedPool(50000, 2)
	s, err := CSF(p, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Identify strata by mean score; the lowest-score stratum should be much
	// larger than the highest-score stratum.
	loK, hiK := 0, 0
	for k := range s.MeanScore {
		if s.MeanScore[k] < s.MeanScore[loK] {
			loK = k
		}
		if s.MeanScore[k] > s.MeanScore[hiK] {
			hiK = k
		}
	}
	if s.Size(loK) < 10*s.Size(hiK) {
		t.Errorf("expected heavy tail: low stratum %d items vs high %d",
			s.Size(loK), s.Size(hiK))
	}
}

func TestCSFScoreMonotoneAcrossStrata(t *testing.T) {
	// CSF strata are intervals on the score axis: item scores in a stratum
	// with larger mean must not fall below the maximum of a stratum with a
	// smaller mean... verified via interval non-overlap.
	p := imbalancedPool(5000, 3)
	s, err := CSF(p, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	type span struct{ lo, hi float64 }
	spans := make([]span, s.K())
	for k := range spans {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, i := range s.Members(k) {
			if p.Scores[i] < lo {
				lo = p.Scores[i]
			}
			if p.Scores[i] > hi {
				hi = p.Scores[i]
			}
		}
		spans[k] = span{lo, hi}
	}
	for a := 0; a < len(spans); a++ {
		for b := 0; b < len(spans); b++ {
			if a == b {
				continue
			}
			// Intervals may touch at edges (same histogram bin boundary) but
			// must not strictly interleave.
			if spans[a].lo < spans[b].lo && spans[b].lo < spans[a].hi &&
				spans[a].hi < spans[b].hi {
				t.Fatalf("strata %d and %d interleave: %+v vs %+v", a, b, spans[a], spans[b])
			}
		}
	}
}

func TestCSFDegenerateScores(t *testing.T) {
	p := &pool.Pool{
		Scores:    []float64{0.5, 0.5, 0.5, 0.5},
		Preds:     []bool{true, false, true, false},
		TruthProb: []float64{1, 0, 1, 0},
	}
	s, err := CSF(p, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.K() != 1 {
		t.Errorf("constant scores should give one stratum, got %d", s.K())
	}
	checkPartition(t, p, s)
}

func TestCSFErrors(t *testing.T) {
	if _, err := CSF(&pool.Pool{}, 10, 0); err == nil {
		t.Error("expected error on empty pool")
	}
	p := imbalancedPool(100, 4)
	if _, err := CSF(p, 0, 0); err == nil {
		t.Error("expected error on K=0")
	}
}

func TestEqualSize(t *testing.T) {
	p := imbalancedPool(10007, 5)
	s, err := EqualSize(p, 30)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, p, s)
	if s.K() != 30 {
		t.Fatalf("K = %d", s.K())
	}
	// Sizes within ±1 of each other is too strict with ties; allow small
	// slack but require near-uniformity.
	minSize, maxSize := p.N(), 0
	for k := 0; k < s.K(); k++ {
		if s.Size(k) < minSize {
			minSize = s.Size(k)
		}
		if s.Size(k) > maxSize {
			maxSize = s.Size(k)
		}
	}
	if maxSize-minSize > 2 {
		t.Errorf("equal-size spread: %d..%d", minSize, maxSize)
	}
}

func TestEqualSizeKLargerThanN(t *testing.T) {
	p := &pool.Pool{
		Scores:    []float64{0.1, 0.9, 0.5},
		Preds:     []bool{false, true, false},
		TruthProb: []float64{0, 1, 0},
	}
	s, err := EqualSize(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.K() != 3 {
		t.Errorf("K = %d, want 3", s.K())
	}
	checkPartition(t, p, s)
}

func TestStratumStatistics(t *testing.T) {
	p := &pool.Pool{
		Scores:        []float64{0.1, 0.2, 0.8, 0.9},
		Preds:         []bool{false, false, true, true},
		TruthProb:     []float64{0, 0, 1, 1},
		Probabilistic: true,
	}
	s, err := EqualSize(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.K() != 2 {
		t.Fatalf("K = %d", s.K())
	}
	// Low stratum: scores {0.1, 0.2}, preds all false.
	lo := 0
	if s.MeanScore[1] < s.MeanScore[0] {
		lo = 1
	}
	hi := 1 - lo
	if math.Abs(s.MeanScore[lo]-0.15) > 1e-12 || math.Abs(s.MeanScore[hi]-0.85) > 1e-12 {
		t.Errorf("mean scores %v", s.MeanScore)
	}
	if s.MeanPred[lo] != 0 || s.MeanPred[hi] != 1 {
		t.Errorf("mean preds %v", s.MeanPred)
	}
	if s.Weights[lo] != 0.5 || s.Weights[hi] != 0.5 {
		t.Errorf("weights %v", s.Weights)
	}
}

func TestCSFPropertyRandomPools(t *testing.T) {
	f := func(seed uint64, kRaw, nRaw uint8) bool {
		n := int(nRaw)%500 + 10
		k := int(kRaw)%40 + 1
		p := imbalancedPool(n, seed)
		s, err := CSF(p, k, 0)
		if err != nil {
			return false
		}
		if s.K() > k || s.K() < 1 {
			return false
		}
		// Partition invariants.
		count := 0
		for k := 0; k < s.K(); k++ {
			count += s.Size(k)
		}
		wsum := 0.0
		for _, w := range s.Weights {
			wsum += w
		}
		return count == n && math.Abs(wsum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCSFDeterministic(t *testing.T) {
	p := imbalancedPool(5000, 6)
	a, err := CSF(p, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CSF(p, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.Off, b.Off) || !slices.Equal(a.Perm, b.Perm) {
		t.Fatal("CSF not deterministic in layout")
	}
}

func TestCSFHomogeneityBeatsRandomPartition(t *testing.T) {
	// The point of score stratification: intra-stratum score variance should
	// be far below that of a random partition of equal sizes.
	p := imbalancedPool(20000, 7)
	s, err := CSF(p, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	intra := func(items [][]int32) float64 {
		tot := 0.0
		n := 0
		for _, it := range items {
			if len(it) == 0 {
				continue
			}
			mean := 0.0
			for _, i := range it {
				mean += p.Scores[i]
			}
			mean /= float64(len(it))
			for _, i := range it {
				d := p.Scores[i] - mean
				tot += d * d
			}
			n += len(it)
		}
		return tot / float64(n)
	}
	csfItems := make([][]int32, s.K())
	for k := range csfItems {
		csfItems[k] = s.Members(k)
	}
	csfVar := intra(csfItems)
	// Random partition with the same stratum sizes.
	r := rng.New(8)
	perm := make([]int32, p.N())
	for i, j := range r.Perm(p.N()) {
		perm[i] = int32(j)
	}
	randItems := make([][]int32, s.K())
	pos := 0
	for k := 0; k < s.K(); k++ {
		randItems[k] = perm[pos : pos+s.Size(k)]
		pos += s.Size(k)
	}
	randVar := intra(randItems)
	if csfVar*5 > randVar {
		t.Errorf("CSF intra-stratum variance %v not ≪ random %v", csfVar, randVar)
	}
}
