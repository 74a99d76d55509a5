package metric

import (
	"math"
	"testing"
	"testing/quick"

	"oasis/internal/textutil"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestJaccard(t *testing.T) {
	cases := []struct {
		a, b []string
		want float64
	}{
		{nil, nil, 1},
		{[]string{"a"}, nil, 0},
		{[]string{"a", "b"}, []string{"a", "b"}, 1},
		{[]string{"a", "b"}, []string{"b", "c"}, 1.0 / 3},
		{[]string{"a"}, []string{"b"}, 0},
	}
	for _, c := range cases {
		if got := Jaccard(c.a, c.b); !approx(got, c.want, 1e-12) {
			t.Errorf("Jaccard(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestJaccardProperties(t *testing.T) {
	f := func(a, b string) bool {
		ga := textutil.Trigrams(textutil.Normalize(a))
		gb := textutil.Trigrams(textutil.Normalize(b))
		j1 := Jaccard(ga, gb)
		j2 := Jaccard(gb, ga)
		// Symmetry, range, self-similarity.
		return j1 == j2 && j1 >= 0 && j1 <= 1 && Jaccard(ga, ga) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTrigramJaccard checks Jaccard over character trigram sets, the
// pipeline's short-text similarity.
func TestTrigramJaccard(t *testing.T) {
	tri := func(a, b string) float64 { return Jaccard(textutil.Trigrams(a), textutil.Trigrams(b)) }
	if got := tri("kitten", "kitten"); got != 1 {
		t.Errorf("identical strings = %v", got)
	}
	sim := tri("apple iphone 6", "apple iphone 6s")
	dis := tri("apple iphone 6", "samsung galaxy s5")
	if !(sim > dis) {
		t.Errorf("trigram similarity ordering: %v vs %v", sim, dis)
	}
}

func TestCosineSparse(t *testing.T) {
	a := textutil.SparseVector{{Term: "x", Weight: 1}}
	b := textutil.SparseVector{{Term: "y", Weight: 1}}
	if got := CosineSparse(a, b); got != 0 {
		t.Errorf("orthogonal = %v", got)
	}
	if got := CosineSparse(a, a); !approx(got, 1, 1e-12) {
		t.Errorf("self = %v", got)
	}
	c := textutil.SparseVector{{Term: "x", Weight: 1}, {Term: "y", Weight: 1}}
	if got := CosineSparse(a, c); !approx(got, 1/math.Sqrt2, 1e-12) {
		t.Errorf("45° = %v", got)
	}
	if CosineSparse(nil, nil) != 1 || CosineSparse(a, nil) != 0 {
		t.Error("empty conventions broken")
	}
}

func TestCosineWithCorpusVectors(t *testing.T) {
	corpus := textutil.NewCorpus([]string{
		"digital camera with optical zoom",
		"laptop with retina display",
		"compact digital camera",
	})
	va := corpus.Vector("digital camera with optical zoom")
	vb := corpus.Vector("compact digital camera")
	vc := corpus.Vector("laptop with retina display")
	simAB := CosineSparse(va, vb)
	simAC := CosineSparse(va, vc)
	if !(simAB > simAC) {
		t.Errorf("corpus cosine ordering: %v vs %v", simAB, simAC)
	}
	if s := CosineSparse(va, va); !approx(s, 1, 1e-9) {
		t.Errorf("self cosine = %v", s)
	}
	if CosineSparse(va, vb) != CosineSparse(vb, va) {
		t.Error("cosine not bit-symmetric")
	}
}

func TestNumericSimilarity(t *testing.T) {
	cases := []struct {
		a, b, want float64
	}{
		{0, 0, 1},
		{5, 5, 1},
		{-3, -3, 1},
		{1, 3, 0.5},
		{0, 10, 0},
		{-1, 1, 0},
	}
	for _, c := range cases {
		if got := NumericSimilarity(c.a, c.b); !approx(got, c.want, 1e-12) {
			t.Errorf("NumericSimilarity(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if NumericSimilarity(math.NaN(), 1) != 0 || NumericSimilarity(1, math.Inf(1)) != 0 {
		t.Error("non-finite handling broken")
	}
}

func TestNumericSimilarityProperties(t *testing.T) {
	f := func(ai, bi int16) bool {
		a, b := float64(ai), float64(bi)
		s := NumericSimilarity(a, b)
		return s >= 0 && s <= 1 && s == NumericSimilarity(b, a) && NumericSimilarity(a, a) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkTrigramJaccard(b *testing.B) {
	x := "canon powershot sx30 is digital camera"
	y := "canon powershot sx30is digital camera black"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Jaccard(textutil.Trigrams(x), textutil.Trigrams(y))
	}
}
