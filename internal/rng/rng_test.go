package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical outputs in 100 draws", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	seenNonZero := false
	for i := 0; i < 10; i++ {
		if r.Uint64() != 0 {
			seenNonZero = true
		}
	}
	if !seenNonZero {
		t.Fatal("zero seed produced all-zero stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("mean of uniforms = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 10, 1000, 1 << 30} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	r := New(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func TestMul64Property(t *testing.T) {
	// Against big-integer-free check: (a*b) mod 2^64 must equal lo.
	f := func(a, b uint64) bool {
		_, lo := mul64(a, b)
		return lo == a*b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(13)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.Normal()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestBernoulli(t *testing.T) {
	r := New(17)
	if r.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) rate = %v", p)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(19)
	for _, n := range []int{0, 1, 2, 17, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := New(23)
	for _, tc := range []struct{ n, k int }{{10, 10}, {10, 3}, {1000, 5}, {1000, 900}, {5, 0}} {
		s := r.SampleWithoutReplacement(tc.n, tc.k)
		if len(s) != tc.k {
			t.Fatalf("got %d samples, want %d", len(s), tc.k)
		}
		seen := make(map[int]bool)
		for _, v := range s {
			if v < 0 || v >= tc.n {
				t.Fatalf("sample %d out of range [0,%d)", v, tc.n)
			}
			if seen[v] {
				t.Fatalf("duplicate sample %d", v)
			}
			seen[v] = true
		}
	}
}

func TestSampleWithoutReplacementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when k > n")
		}
	}()
	New(1).SampleWithoutReplacement(3, 4)
}

func TestCategoricalErrors(t *testing.T) {
	r := New(29)
	for _, w := range [][]float64{
		nil,
		{},
		{0, 0, 0},
		{-1, 2},
		{math.NaN()},
		{math.Inf(1)},
	} {
		if _, err := r.Categorical(w); err == nil {
			t.Errorf("Categorical(%v) expected error", w)
		}
	}
	if _, err := NewCumulative([]float64{0, 0}); err == nil {
		t.Error("NewCumulative zero weights: expected error")
	}
	if _, err := NewAlias([]float64{-1}); err == nil {
		t.Error("NewAlias negative weight: expected error")
	}
}

func TestCategoricalRespectsZeros(t *testing.T) {
	r := New(31)
	w := []float64{0, 1, 0, 2, 0}
	for i := 0; i < 10000; i++ {
		k, err := r.Categorical(w)
		if err != nil {
			t.Fatal(err)
		}
		if k != 1 && k != 3 {
			t.Fatalf("drew zero-weight category %d", k)
		}
	}
}

// frequencyCheck draws from draw() and compares empirical frequencies
// against want (normalised weights) within 5-sigma binomial tolerance.
func frequencyCheck(t *testing.T, name string, w []float64, draw func() int) {
	t.Helper()
	sum := 0.0
	for _, x := range w {
		sum += x
	}
	const n = 200000
	counts := make([]int, len(w))
	for i := 0; i < n; i++ {
		counts[draw()]++
	}
	for i, x := range w {
		p := x / sum
		exp := p * n
		sigma := math.Sqrt(n * p * (1 - p))
		if math.Abs(float64(counts[i])-exp) > 5*sigma+1 {
			t.Errorf("%s: category %d count %d, want ~%.0f (sigma %.1f)", name, i, counts[i], exp, sigma)
		}
	}
}

func TestSamplersAgreeWithWeights(t *testing.T) {
	w := []float64{5, 0, 1, 3, 0.5, 10}
	r1 := New(37)
	frequencyCheck(t, "Categorical", w, func() int {
		k, err := r1.Categorical(w)
		if err != nil {
			t.Fatal(err)
		}
		return k
	})
	cum, err := NewCumulative(w)
	if err != nil {
		t.Fatal(err)
	}
	r2 := New(38)
	frequencyCheck(t, "Cumulative", w, func() int { return cum.Draw(r2) })
	al, err := NewAlias(w)
	if err != nil {
		t.Fatal(err)
	}
	r3 := New(39)
	frequencyCheck(t, "Alias", w, func() int { return al.Draw(r3) })
}

func TestAliasMatchesCumulativeDistribution(t *testing.T) {
	// Property: for random weight vectors, alias and cumulative samplers
	// agree on the support (never draw a zero-weight index).
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 20 {
			raw = raw[:20]
		}
		w := make([]float64, len(raw))
		sum := 0.0
		for i, b := range raw {
			w[i] = float64(b)
			sum += w[i]
		}
		if sum == 0 {
			return true // invalid weights rejected elsewhere
		}
		al, err1 := NewAlias(w)
		cum, err2 := NewCumulative(w)
		if err1 != nil || err2 != nil {
			return false
		}
		r := New(41)
		for i := 0; i < 200; i++ {
			if w[al.Draw(r)] == 0 {
				return false
			}
			if w[cum.Draw(r)] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGeometric(t *testing.T) {
	r := New(43)
	if g := r.Geometric(1); g != 0 {
		t.Errorf("Geometric(1) = %d, want 0", g)
	}
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += float64(r.Geometric(0.25))
	}
	mean := sum / n // expected (1-p)/p = 3
	if math.Abs(mean-3) > 0.1 {
		t.Errorf("Geometric(0.25) mean = %v, want ~3", mean)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkAliasDraw(b *testing.B) {
	w := make([]float64, 100000)
	for i := range w {
		w[i] = float64(i%97) + 1
	}
	al, _ := NewAlias(w)
	r := New(1)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += al.Draw(r)
	}
	_ = sink
}

func BenchmarkCategoricalNaive(b *testing.B) {
	w := make([]float64, 100000)
	for i := range w {
		w[i] = float64(i%97) + 1
	}
	r := New(1)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		k, _ := r.Categorical(w)
		sink += k
	}
	_ = sink
}
