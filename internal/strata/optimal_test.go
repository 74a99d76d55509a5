package strata

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTruePiAndTrueOptimalV(t *testing.T) {
	p := imbalancedPool(5000, 21)
	s, err := CSF(p, 15, 0)
	if err != nil {
		t.Fatal(err)
	}
	pi := TruePi(p, s)
	if len(pi) != s.K() {
		t.Fatalf("TruePi length %d", len(pi))
	}
	for k, v := range pi {
		if v < 0 || v > 1 {
			t.Errorf("TruePi[%d] = %v", k, v)
		}
	}
	v := TrueOptimalV(p, s, 0.5)
	sum := 0.0
	for _, q := range v {
		if q < 0 {
			t.Errorf("negative v* component %v", q)
		}
		sum += q
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("v* sums to %v", sum)
	}
}

func TestStratifiedOptimalProperties(t *testing.T) {
	f := func(aR, fR, piR, lamR, omR uint8) bool {
		alpha := float64(aR%101) / 100
		fv := float64(fR%101) / 100
		pi := float64(piR%101) / 100
		lam := float64(lamR%101) / 100
		om := float64(omR%100)/100 + 0.01
		v := StratifiedOptimal(alpha, fv, pi, lam, om)
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
		// Zero prediction mass and zero match probability → zero optimal mass.
		if StratifiedOptimal(alpha, fv, 0, 0, om) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
