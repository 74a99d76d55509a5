package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if m := Mean(xs); !almostEq(m, 3, 1e-12) {
		t.Errorf("Mean = %v", m)
	}
	if v := Variance(xs); !almostEq(v, 2, 1e-12) {
		t.Errorf("Variance = %v", v)
	}
	if s := StdDev(xs); !almostEq(s, math.Sqrt(2), 1e-12) {
		t.Errorf("StdDev = %v", s)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance(nil)) {
		t.Error("empty input should give NaN")
	}
}

func TestMeanAbs(t *testing.T) {
	if m := MeanAbs([]float64{-1, 1, -3}); !almostEq(m, 5.0/3, 1e-12) {
		t.Errorf("MeanAbs = %v", m)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi, err := MinMax([]float64{3, -1, 7, 2})
	if err != nil || lo != -1 || hi != 7 {
		t.Errorf("MinMax = %v %v %v", lo, hi, err)
	}
	if _, _, err := MinMax(nil); err == nil {
		t.Error("expected error on empty input")
	}
}

func TestOnlineMatchesBatch(t *testing.T) {
	xs := []float64{0.5, -2, 3.25, 3.25, 10, -7.5}
	var o Online
	for _, x := range xs {
		o.Add(x)
	}
	if !almostEq(o.Mean(), Mean(xs), 1e-10) {
		t.Errorf("online mean %v vs batch %v", o.Mean(), Mean(xs))
	}
	if !almostEq(o.Variance(), Variance(xs), 1e-10) {
		t.Errorf("online var %v vs batch %v", o.Variance(), Variance(xs))
	}
	if o.N() != len(xs) {
		t.Errorf("N = %d", o.N())
	}
}

func TestOnlineMatchesBatchProperty(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v) / 3
		}
		var o Online
		for _, x := range xs {
			o.Add(x)
		}
		return almostEq(o.Mean(), Mean(xs), 1e-8) && almostEq(o.Variance(), Variance(xs), 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0, 0.1, 0.2, 0.5, 0.9, 1.0}
	h, err := NewHistogram(xs, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() != len(xs) {
		t.Errorf("total %d", h.Total())
	}
	sum := 0
	for _, c := range h.Counts {
		sum += c
	}
	if sum != len(xs) {
		t.Errorf("counts sum %d", sum)
	}
	// Max value goes into the final bin.
	if h.BinOf(1.0) != 4 {
		t.Errorf("BinOf(max) = %d", h.BinOf(1.0))
	}
	if h.BinOf(-5) != 0 || h.BinOf(99) != 4 {
		t.Error("out-of-range values must clamp")
	}
	// The bins recorded while counting are BinOf's.
	binOf := make([]int32, len(xs))
	if _, err := NewHistogram(xs, 5, binOf); err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		if int(binOf[i]) != h.BinOf(x) {
			t.Errorf("recorded bin %d for %v, BinOf says %d", binOf[i], x, h.BinOf(x))
		}
	}
	if _, err := NewHistogram(xs, 5, binOf[:2]); err == nil {
		t.Error("a bin buffer shorter than the values was accepted")
	}
}

func TestHistogramDegenerate(t *testing.T) {
	h, err := NewHistogram([]float64{2, 2, 2}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.Counts[0] != 3 {
		t.Errorf("degenerate histogram counts %v", h.Counts)
	}
	if _, err := NewHistogram(nil, 3, nil); err == nil {
		t.Error("expected error on empty input")
	}
	if _, err := NewHistogram([]float64{1}, 0, nil); err == nil {
		t.Error("expected error on zero bins")
	}
}

func TestNormalize(t *testing.T) {
	p, err := Normalize([]float64{2, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.25, 0.25, 0.5}
	for i := range p {
		if !almostEq(p[i], want[i], 1e-12) {
			t.Errorf("Normalize[%d] = %v", i, p[i])
		}
	}
	if _, err := Normalize([]float64{0, 0}); err == nil {
		t.Error("expected error for zero-sum")
	}
	if _, err := Normalize([]float64{-1, 2}); err == nil {
		t.Error("expected error for negative weight")
	}
}

func TestKLDivergence(t *testing.T) {
	p := []float64{0.5, 0.5}
	if d, err := KLDivergence(p, p); err != nil || !almostEq(d, 0, 1e-12) {
		t.Errorf("KL(p,p) = %v, %v", d, err)
	}
	q := []float64{0.9, 0.1}
	d, err := KLDivergence(p, q)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5*math.Log(0.5/0.9) + 0.5*math.Log(0.5/0.1)
	if !almostEq(d, want, 1e-12) {
		t.Errorf("KL = %v, want %v", d, want)
	}
	// Zero q where p > 0 → +Inf.
	if d, _ := KLDivergence([]float64{1, 1}, []float64{1, 0}); !math.IsInf(d, 1) {
		t.Errorf("expected +Inf, got %v", d)
	}
	// Zero p entries contribute nothing.
	if d, _ := KLDivergence([]float64{0, 1}, []float64{0.5, 0.5}); !almostEq(d, math.Log(2), 1e-12) {
		t.Errorf("KL with zero p entry = %v", d)
	}
	if _, err := KLDivergence([]float64{1}, []float64{1, 1}); err == nil {
		t.Error("expected length-mismatch error")
	}
}

func TestKLNonNegativeProperty(t *testing.T) {
	f := func(a, b [6]uint8) bool {
		p := make([]float64, 6)
		q := make([]float64, 6)
		sp, sq := 0.0, 0.0
		for i := 0; i < 6; i++ {
			p[i] = float64(a[i]) + 1 // keep support full to avoid Inf
			q[i] = float64(b[i]) + 1
			sp += p[i]
			sq += q[i]
		}
		d, err := KLDivergence(p, q)
		return err == nil && d >= 0 && !math.IsNaN(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSigmoidLogit(t *testing.T) {
	// Sigmoid inverts the logit log(p/(1−p)).
	for _, p := range []float64{0.01, 0.25, 0.5, 0.9, 0.999} {
		if got := Sigmoid(math.Log(p / (1 - p))); !almostEq(got, p, 1e-9) {
			t.Errorf("Sigmoid(logit(%v)) = %v", p, got)
		}
	}
	if s := Sigmoid(0); !almostEq(s, 0.5, 1e-12) {
		t.Errorf("Sigmoid(0) = %v", s)
	}
	if s := Sigmoid(-745); s < 0 || s > 1e-300 {
		t.Errorf("Sigmoid(-745) = %v (should underflow gracefully)", s)
	}
	if s := Sigmoid(745); !almostEq(s, 1, 1e-12) {
		t.Errorf("Sigmoid(745) = %v", s)
	}
}

func TestSigmoidMonotoneProperty(t *testing.T) {
	f := func(a, b int16) bool {
		x, y := float64(a)/100, float64(b)/100
		if x < y {
			return Sigmoid(x) <= Sigmoid(y)
		}
		return Sigmoid(y) <= Sigmoid(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
