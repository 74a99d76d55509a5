package rng

// Equivalence and reuse tests for the prepared/trusted sampling fast paths
// introduced for the OASIS hot loop: Cumulative.Draw must pick the exact
// index Categorical would from the same variate (the OASIS sampler's golden
// sequence, TestGoldenSequence in the root package, depends on it), Reset
// must reuse its buffer, and CategoricalTrusted must match Categorical
// draw-for-draw.

import (
	"math"
	"testing"
)

// randWeights builds a weight vector with occasional zero entries (including
// leading and trailing zeros, the floating-point-slack edge cases).
func randWeights(r *RNG, n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		if r.Float64() < 0.25 {
			w[i] = 0
		} else {
			w[i] = r.Float64() * 10
		}
	}
	if n > 2 {
		w[0] = 0
		w[n-1] = 0
	}
	w[n/2] += 1e-9 // ensure positive mass
	return w
}

// TestCumulativeMatchesCategoricalExactly: same stream, same weights — the
// prepared sampler and the naive scan must return identical index sequences,
// across small (scan) and large (binary search) category counts.
func TestCumulativeMatchesCategoricalExactly(t *testing.T) {
	for _, n := range []int{1, 2, 7, 30, 64, 65, 500} {
		setup := New(uint64(n))
		w := randWeights(setup, n)
		c, err := NewCumulative(w)
		if err != nil {
			t.Fatal(err)
		}
		r1, r2 := New(42), New(42)
		for i := 0; i < 20_000; i++ {
			want, err := r1.Categorical(w)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.Draw(r2); got != want {
				t.Fatalf("n=%d draw %d: Cumulative %d != Categorical %d", n, i, got, want)
			}
		}
	}
}

// TestCategoricalTrustedMatchesCategorical: the no-validate fast path is
// draw-for-draw identical when handed the validated sum.
func TestCategoricalTrustedMatchesCategorical(t *testing.T) {
	setup := New(7)
	w := randWeights(setup, 40)
	sum, err := ValidateWeights(w)
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := New(99), New(99)
	for i := 0; i < 20_000; i++ {
		want, err := r1.Categorical(w)
		if err != nil {
			t.Fatal(err)
		}
		if got := r2.CategoricalTrusted(w, sum); got != want {
			t.Fatalf("draw %d: trusted %d != validated %d", i, got, want)
		}
	}
}

// TestCumulativeReset: re-preparing over new weights draws from the new
// distribution, reuses the buffer at fixed capacity, and still validates.
func TestCumulativeReset(t *testing.T) {
	c, err := NewCumulative([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Reset([]float64{0, 0, 5}); err != nil {
		t.Fatal(err)
	}
	r := New(1)
	for i := 0; i < 100; i++ {
		if got := c.Draw(r); got != 2 {
			t.Fatalf("after Reset to point mass on 2, drew %d", got)
		}
	}
	if got, want := c.Sum(), 5.0; got != want {
		t.Fatalf("Sum = %v, want %v", got, want)
	}
	if err := c.Reset([]float64{1, math.NaN()}); err == nil {
		t.Fatal("Reset accepted NaN weights")
	}
	if err := c.Reset([]float64{}); err == nil {
		t.Fatal("Reset accepted empty weights")
	}
	// Shrinking reuses capacity; growing reallocates; both stay correct.
	if err := c.Reset([]float64{3}); err != nil {
		t.Fatal(err)
	}
	if c.N() != 1 || c.Draw(r) != 0 {
		t.Fatal("Reset to single category broken")
	}
	if err := c.Reset([]float64{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if c.N() != 6 {
		t.Fatalf("N = %d after growing Reset, want 6", c.N())
	}
}

// TestRestoreRejectsZeroState: the all-zero xoshiro256** state (the
// generator's one invalid state, reachable only through a corrupted
// snapshot) must be rejected without touching the generator.
func TestRestoreRejectsZeroState(t *testing.T) {
	r := New(5)
	want := r.State()
	if err := r.Restore(State{}); err != ErrBadState {
		t.Fatalf("Restore of zero state: err = %v, want ErrBadState", err)
	}
	if r.State() != want {
		t.Fatal("failed Restore mutated the generator")
	}
	if err := r.Restore(want); err != nil {
		t.Fatalf("Restore of valid state: %v", err)
	}
}

// TestValidateWeights pins the exported construction-boundary validator.
func TestValidateWeights(t *testing.T) {
	if _, err := ValidateWeights(nil); err == nil {
		t.Fatal("accepted empty weights")
	}
	if _, err := ValidateWeights([]float64{1, -1}); err == nil {
		t.Fatal("accepted negative weight")
	}
	if _, err := ValidateWeights([]float64{math.Inf(1)}); err == nil {
		t.Fatal("accepted infinite weight")
	}
	sum, err := ValidateWeights([]float64{1.5, 2.5})
	if err != nil || sum != 4 {
		t.Fatalf("sum = %v, err = %v", sum, err)
	}
}
