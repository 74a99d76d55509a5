package strata

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"oasis/internal/pool"
	"oasis/internal/rng"
	"oasis/internal/stats"
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

// referenceCSF is CSF computed the way it was before the layout pass took
// the per-stratum sums in pool order: a histogram, a second BinOf per score
// for the assignment, and the layout and means of referenceLayout.
func referenceCSF(p *pool.Pool, targetK, bins int) *Strata {
	if bins <= 0 {
		bins = defaultBins(p.N(), targetK)
	}
	hist, err := stats.NewHistogram(p.Scores, bins, nil)
	if err != nil {
		panic(err)
	}
	csf := make([]float64, hist.Bins())
	acc := 0.0
	for i, c := range hist.Counts {
		acc += math.Sqrt(float64(c))
		csf[i] = acc
	}
	width := csf[len(csf)-1] / float64(targetK)
	assign := make([]int32, p.N())
	for i, s := range p.Scores {
		b := hist.BinOf(s)
		k := int(csf[b] / width)
		if csf[b] > 0 && csf[b]/width == float64(k) {
			k--
		}
		assign[i] = int32(min(max(k, 0), targetK-1))
	}
	return referenceLayout(p, assign, targetK)
}

// referenceEqualSize cuts an index sort of the scores into targetK rank
// ranges and lays them out with referenceLayout.
func referenceEqualSize(p *pool.Pool, targetK int) *Strata {
	n := p.N()
	targetK = min(targetK, n)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return p.Scores[order[a]] < p.Scores[order[b]] })
	assign := make([]int32, n)
	for rank, i := range order {
		assign[i] = int32(min(rank*targetK/n, targetK-1))
	}
	return referenceLayout(p, assign, targetK)
}

// referenceLayout is the per-stratum walk: a counting sort into stratum
// order, then each non-empty stratum's means summed over its members in
// Perm order, with pool.ProbScore for the probability-mapped scores.
func referenceLayout(p *pool.Pool, assign []int32, k int) *Strata {
	s := &Strata{Off: []int32{0}, Perm: make([]int32, 0, len(assign)), Pos: make([]int32, len(assign))}
	for a := int32(0); a < int32(k); a++ {
		for i, b := range assign {
			if b == a {
				s.Pos[i] = int32(len(s.Perm))
				s.Perm = append(s.Perm, int32(i))
			}
		}
		if int(s.Off[len(s.Off)-1]) < len(s.Perm) {
			s.Off = append(s.Off, int32(len(s.Perm)))
		}
	}
	n := float64(p.N())
	for j := 0; j < len(s.Off)-1; j++ {
		members := s.Perm[s.Off[j]:s.Off[j+1]]
		size := float64(len(members))
		var sumScore, sumProb, sumPred float64
		for _, i := range members {
			sumScore += p.Scores[i]
			sumProb += p.ProbScore(int(i))
			if p.Preds[i] {
				sumPred++
			}
		}
		s.Weights = append(s.Weights, size/n)
		s.MeanScore = append(s.MeanScore, sumScore/size)
		s.MeanProbScore = append(s.MeanProbScore, sumProb/size)
		s.MeanPred = append(s.MeanPred, sumPred/size)
	}
	return s
}

// sameBits reports whether two float slices hold the same bit patterns.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestStrataMatchReference holds CSF and EqualSize to the bits of the
// per-stratum walk: the layout (Perm, Off, Pos) and the four per-stratum
// columns, on calibrated pools with scores outside [0, 1] (the clamp) and a
// negative zero, on uncalibrated pools whose scores straddle the threshold,
// on a histogram that leaves strata empty (they are dropped) and on ties.
func TestStrataMatchReference(t *testing.T) {
	calibrated := imbalancedPool(30011, 21)
	calibrated.Scores[3], calibrated.Scores[10], calibrated.Scores[99] = -0.25, 1.75, math.Copysign(0, -1)

	r := rng.New(22)
	uncalibrated := &pool.Pool{Scores: make([]float64, 20011), Preds: make([]bool, 20011), Threshold: 0.5}
	for i := range uncalibrated.Scores {
		u := r.Float64()
		uncalibrated.Scores[i] = 8*u*u - 4
		uncalibrated.Preds[i] = r.Bernoulli(0.5)
	}
	uncalibrated.Scores[7], uncalibrated.Scores[8] = 0.5, math.Copysign(0, -1)
	atZero := *uncalibrated
	atZero.Threshold = 0

	// Two dense clusters with a sparse bridge: each cluster's bin jumps the
	// cumulative √F over several cut points, so those strata get no bin.
	gappy := &pool.Pool{Scores: make([]float64, 4000), Preds: make([]bool, 4000), Probabilistic: true}
	for i := range gappy.Scores {
		switch {
		case i%100 == 0:
			gappy.Scores[i] = 0.2 + 0.6*r.Float64()
		case i%2 == 0:
			gappy.Scores[i] = 0.1
		default:
			gappy.Scores[i] = 0.9
		}
		gappy.Preds[i] = gappy.Scores[i] > 0.5
	}

	// Scores on a coarse grid: EqualSize's rank cuts fall inside ties.
	tied := imbalancedPool(10007, 23)
	for i, s := range tied.Scores {
		tied.Scores[i] = math.Round(s*20) / 20
	}

	check := func(name string, got *Strata, err error, want *Strata) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(got.Perm, want.Perm) || !slices.Equal(got.Off, want.Off) || !slices.Equal(got.Pos, want.Pos) {
			t.Fatalf("%s: layout differs from the reference (K %d vs %d)", name, got.K(), want.K())
		}
		for _, c := range []struct {
			col       string
			got, want []float64
		}{
			{"Weights", got.Weights, want.Weights},
			{"MeanScore", got.MeanScore, want.MeanScore},
			{"MeanProbScore", got.MeanProbScore, want.MeanProbScore},
			{"MeanPred", got.MeanPred, want.MeanPred},
		} {
			if !sameBits(c.got, c.want) {
				t.Fatalf("%s: %s %v, reference %v", name, c.col, c.got, c.want)
			}
		}
	}
	for _, c := range []struct {
		name    string
		p       *pool.Pool
		k, bins int
	}{
		{"calibrated", calibrated, 30, 0},
		{"calibrated/coarse", calibrated, 7, 40},
		{"uncalibrated", uncalibrated, 30, 0},
		{"uncalibrated/threshold0", &atZero, 12, 500},
		{"gappy", gappy, 10, 0},
		{"tied", tied, 30, 0},
	} {
		got, err := CSF(c.p, c.k, c.bins)
		check("CSF/"+c.name, got, err, referenceCSF(c.p, c.k, c.bins))
		eq, err := EqualSize(c.p, c.k)
		check("EqualSize/"+c.name, eq, err, referenceEqualSize(c.p, c.k))
	}
	if got, err := CSF(gappy, 10, 0); err != nil || got.K() >= 10 {
		t.Fatalf("gappy pool kept %d of 10 strata (%v); the test needs empty strata", got.K(), err)
	}
}
