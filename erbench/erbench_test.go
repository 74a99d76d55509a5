package erbench

import (
	"errors"
	"math"
	"testing"

	"oasis"
	"oasis/internal/diag"
	"oasis/internal/session"
)

func TestDatasetNames(t *testing.T) {
	names := DatasetNames()
	if len(names) != 6 {
		t.Fatalf("names %v", names)
	}
	if names[0] != "Amazon-GoogleProducts" || names[5] != "tweets100k" {
		t.Errorf("order %v", names)
	}
}

func TestInventory(t *testing.T) {
	infos, err := Inventory(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 6 {
		t.Fatalf("inventory %d", len(infos))
	}
	for _, info := range infos {
		if info.Pairs <= 0 || info.Matches <= 0 {
			t.Errorf("%s: pairs %d matches %d", info.Name, info.Pairs, info.Matches)
		}
		if info.PaperPairs <= 0 {
			t.Errorf("%s: missing paper reference", info.Name)
		}
		// Pair counts should match the paper's within 2% (match counts are
		// exact by construction for two-source, approximate for dedup).
		ratio := float64(info.Pairs) / float64(info.PaperPairs)
		if info.Name != "restaurant" && (ratio < 0.9 || ratio > 1.1) {
			t.Errorf("%s: pair count %d vs paper %d", info.Name, info.Pairs, info.PaperPairs)
		}
	}
}

func buildSmall(t *testing.T, name string, cal bool) *BuiltPool {
	t.Helper()
	b, err := BuildPool(name, PoolConfig{Scale: 0.04, Calibrate: cal, Seed: 3, TrainPairs: 1200})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBuildPoolOperatingPoint(t *testing.T) {
	b := buildSmall(t, "Abt-Buy", false)
	if b.Pool.N() <= 0 {
		t.Fatal("empty pool")
	}
	if math.IsNaN(b.F50) || b.F50 <= 0.05 || b.F50 > 1 {
		t.Errorf("F50 = %v", b.F50)
	}
	if b.Precision < 0 || b.Precision > 1 || b.Recall < 0 || b.Recall > 1 {
		t.Errorf("operating point %v/%v", b.Precision, b.Recall)
	}
	if got := b.TrueF(0.5); math.Abs(got-b.F50) > 1e-12 {
		t.Errorf("TrueF %v vs F50 %v", got, b.F50)
	}
}

// TestBuildPoolDeterministic pins seeded pool construction: two builds of
// the same dedup profile with the same seed must score identical pools, so
// nothing on the build path may depend on map iteration order.
// TestBuildPoolDeterministic covers a dedup profile (cora) and both
// two-source profiles, whose description field is scored by tf-idf cosine:
// its sums must not depend on map iteration order.
func TestBuildPoolDeterministic(t *testing.T) {
	cfg := PoolConfig{Scale: 0.05, Calibrate: true, Seed: 12345, TrainPairs: 1200}
	for _, name := range []string{"cora", "Abt-Buy", "Amazon-GoogleProducts"} {
		t.Run(name, func(t *testing.T) {
			a, err := BuildPool(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := BuildPool(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			pa, pb := a.Pool.Internal(), b.Pool.Internal()
			if len(pa.Scores) != len(pb.Scores) {
				t.Fatalf("pool sizes %d and %d", len(pa.Scores), len(pb.Scores))
			}
			for i := range pa.Scores {
				if pa.Scores[i] != pb.Scores[i] || pa.Preds[i] != pb.Preds[i] {
					t.Fatalf("pair %d: (%v, %v) vs (%v, %v)", i, pa.Scores[i], pa.Preds[i], pb.Scores[i], pb.Preds[i])
				}
			}
		})
	}
}

func TestBuildPoolUnknownName(t *testing.T) {
	if _, err := BuildPool("nope", PoolConfig{}); err == nil {
		t.Error("expected error for unknown dataset")
	}
}

func TestRunCurvesOASISBeatsPassive(t *testing.T) {
	b := buildSmall(t, "Abt-Buy", false)
	cfg := HarnessConfig{Budget: 400, Runs: 12, Seed: 5}
	oasisCurves, err := RunCurves(b, OASIS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	passiveCurves, err := RunCurves(b, Passive, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lastO := oasisCurves.MeanAbsErr[len(oasisCurves.MeanAbsErr)-1]
	lastP := passiveCurves.MeanAbsErr[len(passiveCurves.MeanAbsErr)-1]
	if math.IsNaN(lastO) {
		t.Fatal("OASIS curve undefined at final budget")
	}
	// Passive may be undefined (no match sampled) — that itself demonstrates
	// the claim; otherwise OASIS must have smaller error.
	if !math.IsNaN(lastP) && lastO >= lastP {
		t.Errorf("OASIS %v not below passive %v", lastO, lastP)
	}
}

func TestRunTiming(t *testing.T) {
	b := buildSmall(t, "cora", false)
	tm, err := RunTiming(b, OASIS, HarnessConfig{Budget: 150, Runs: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if tm.PerRun <= 0 || tm.PerIteration <= 0 {
		t.Errorf("timings %v %v", tm.PerRun, tm.PerIteration)
	}
	if tm.Method == "" {
		t.Error("missing method name")
	}
}

func TestRunConvergence(t *testing.T) {
	b := buildSmall(t, "Abt-Buy", true)
	conv, err := RunConvergence(b, HarnessConfig{Budget: 400, Seed: 7}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(conv.Labels) == 0 {
		t.Fatal("no convergence samples")
	}
	for i := range conv.KL {
		if conv.KL[i] < 0 {
			t.Errorf("KL[%d] = %v", i, conv.KL[i])
		}
	}
}

func TestStrataSummaryHeavyTail(t *testing.T) {
	b := buildSmall(t, "Abt-Buy", true)
	rows, err := StrataSummary(b, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("strata %d", len(rows))
	}
	// Figure 1 shape: the largest stratum has a low mean score.
	largest := rows[0]
	for _, r := range rows {
		if r.Size > largest.Size {
			largest = r
		}
	}
	maxScore := rows[0].MeanScore
	for _, r := range rows {
		if r.MeanScore > maxScore {
			maxScore = r.MeanScore
		}
	}
	if largest.MeanScore > maxScore/2 {
		t.Errorf("largest stratum (size %d) has high mean score %v (max %v)",
			largest.Size, largest.MeanScore, maxScore)
	}
}

func TestFinalError(t *testing.T) {
	b := buildSmall(t, "restaurant", false)
	mean, ci, err := FinalError(b, OASIS, HarnessConfig{Budget: 200, Runs: 8, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(mean) || mean < 0 {
		t.Errorf("mean %v", mean)
	}
	if ci < 0 {
		t.Errorf("ci %v", ci)
	}
}

func TestMethodKindString(t *testing.T) {
	kinds := []MethodKind{Passive, Stratified, ImportanceSampling, ImportanceSamplingNaive, OASIS}
	for _, k := range kinds {
		if k.String() == "unknown" {
			t.Errorf("kind %d missing name", k)
		}
	}
	if MethodKind(99).String() != "unknown" {
		t.Error("unknown kind should say so")
	}
}

func TestCalibratedPoolScoresAreProbabilities(t *testing.T) {
	b := buildSmall(t, "DBLP-ACM", true)
	inner := b.Pool.Internal()
	if !inner.Probabilistic {
		t.Fatal("calibrated build should mark pool probabilistic")
	}
	for i := 0; i < inner.N(); i++ {
		if inner.Scores[i] < 0 || inner.Scores[i] > 1 {
			t.Fatalf("score %v out of [0,1]", inner.Scores[i])
		}
	}
}

func TestRunDiagnostics(t *testing.T) {
	b := buildSmall(t, "restaurant", false)
	snap, err := RunDiagnostics(b, HarnessConfig{Budget: 120, Strata: 8, Seed: 11}, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Dataset != "restaurant" {
		t.Errorf("dataset %q", snap.Dataset)
	}
	if len(snap.Series) == 0 || snap.Seen != 30 {
		t.Fatalf("series len=%d seen=%d, want non-empty with 30 recorded", len(snap.Series), snap.Seen)
	}
	// 30 points into a 16-ring must have downsampled at least once, and the
	// retained labels axis stays monotone.
	if snap.Stride < 2 {
		t.Errorf("stride %d, want >= 2", snap.Stride)
	}
	for i := 1; i < len(snap.Series); i++ {
		if snap.Series[i].Labels < snap.Series[i-1].Labels {
			t.Fatalf("labels axis not monotone at %d", i)
		}
	}
	// The newest point may be off the stride grid (discarded by design),
	// but the retained tail must be within one stride of the budget.
	if last := snap.Series[len(snap.Series)-1]; last.Labels <= 0 || last.Labels > 120 ||
		120-last.Labels > int(snap.Stride)*4 {
		t.Errorf("final retained point at %d labels (stride %d), want near 120", last.Labels, snap.Stride)
	}
	if len(snap.Strata) == 0 {
		t.Error("no per-stratum diagnostics")
	}
	if snap.State == "" || snap.Final.Terms <= 0 {
		t.Errorf("state %q terms %d", snap.State, snap.Final.Terms)
	}
}

// TestRunDiagnosticsMatchesSession: RunDiagnostics must record what a live
// session records over the same pool with the same options, seed, oracle
// and batch size — the same series (wall clock aside) and the same final
// health — for the default options and for the ablation fields.
func TestRunDiagnosticsMatchesSession(t *testing.T) {
	b := buildSmall(t, "Abt-Buy", false)
	inner := b.Pool.Internal()
	const budget, every, ring = 120, 4, 16
	for _, cfg := range []HarnessConfig{
		{Budget: budget, Strata: 8, Seed: 11},
		{Budget: budget, Strata: 8, Seed: 11, NoPriorDecay: true, EqualSizeStrata: true},
	} {
		snap, err := RunDiagnostics(b, cfg, every, ring)
		if err != nil {
			t.Fatal(err)
		}

		opts := oasis.Options{Strata: cfg.Strata, Seed: cfg.Seed, NoPriorDecay: cfg.NoPriorDecay}
		if cfg.EqualSizeStrata {
			opts.Stratifier = oasis.EqualSizeStratifier
		}
		m := session.NewManager(session.ManagerOptions{
			Diag: session.DiagOptions{SeriesCapacity: ring, Logf: func(string, ...any) {}},
		})
		s, err := m.Create(session.Config{
			Scores: inner.Scores, Preds: inner.Preds, Calibrated: inner.Probabilistic,
			Threshold: inner.Threshold, Options: opts, Budget: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		orc := b.Oracle(cfg.Seed ^ 0xabcdef)
		for {
			props, err := s.Propose(every)
			if errors.Is(err, session.ErrBudgetExhausted) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			pairs := make([]int, len(props))
			labels := make([]bool, len(props))
			for i, pr := range props {
				pairs[i], labels[i] = pr.Pair, orc(pr.Pair)
			}
			if _, err := s.CommitBatch(pairs, labels); err != nil {
				t.Fatal(err)
			}
		}
		live := s.Diagnostics()

		if len(snap.Series) != len(live.Series) || snap.Seen != live.SeriesSeen || snap.Stride != live.SeriesStride {
			t.Fatalf("%+v: offline series %d points (seen %d, stride %d), live %d (seen %d, stride %d)",
				cfg, len(snap.Series), snap.Seen, snap.Stride, len(live.Series), live.SeriesSeen, live.SeriesStride)
		}
		for i, got := range snap.Series {
			want := live.Series[i]
			if got.Seq != want.Seq || got.Labels != want.Labels || got.Terms != want.Terms ||
				!sameFloat(got.Estimate, want.Estimate) || !sameFloat(got.Variance, want.Variance) ||
				!sameFloat(got.ESSRatio, want.ESSRatio) {
				t.Fatalf("%+v: point %d offline %+v, live %+v", cfg, i, got, want)
			}
		}
		if snap.State != live.State || snap.Final.Terms != live.Terms ||
			!sameFloat(diag.Float(snap.Final.Estimate), live.Estimate) ||
			!sameFloat(diag.Float(snap.Final.AsymptoticVariance), live.Variance) ||
			!sameFloat(diag.Float(snap.Final.ESSRatio), live.ESSRatio) {
			t.Errorf("%+v: final offline %s %+v, live %s terms %d F %v var %v ess %v", cfg, snap.State, snap.Final,
				live.State, live.Terms, live.Estimate, live.Variance, live.ESSRatio)
		}
	}
}

// sameFloat reports bit-equal values, treating every NaN as equal.
func sameFloat(a, b diag.Float) bool {
	x, y := float64(a), float64(b)
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}
