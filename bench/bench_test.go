package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		ok   bool
		desc string
	}{
		{19, 0, false, "too few for any percentile with ten samples beyond it"},
		{20, 0.5, true, "the median has ten beyond it"},
		{100, 0.9, true, "p90 at 100 samples"},
		{500, 0.98, true, "p98 at 500 samples"},
		{999, 1 - 10.0/999, true, "just short of p99"},
		{1000, 0.99, true, "p99 from 1000 samples"},
		{50000, 0.99, true, "never beyond p99"},
	} {
		q, ok := tailQuantile(tc.n)
		if ok != tc.ok || math.Abs(q-tc.q) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v (%s)", tc.n, q, ok, tc.q, tc.ok, tc.desc)
		}
	}
}

func TestSummaryLeavesTenSamplesBeyondTheTail(t *testing.T) {
	for _, n := range []int{20, 100, 537, 1000, 4000} {
		var l latencies
		for i := n; i >= 1; i-- { // unsorted on purpose
			l.add(time.Duration(i) * time.Millisecond)
		}
		s := l.summary()
		beyond := n - int(s.TailMs)
		if s.N != n || beyond < 10 {
			t.Errorf("n=%d: tail %v ms at q=%v leaves %d samples beyond it", n, s.TailMs, s.TailQ, beyond)
		}
		if n >= 1000 && s.TailQ != 0.99 {
			t.Errorf("n=%d: tail quantile %v, want p99", n, s.TailQ)
		}
		if want := float64((n + 1) / 2); s.P50Ms != want {
			t.Errorf("n=%d: p50 %v, want %v", n, s.P50Ms, want)
		}
	}
	var empty latencies
	if s := empty.summary(); s.N != 0 || s.TailMs != 0 {
		t.Errorf("empty summary %+v", s)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func bound(b float64) *float64 { return &b }

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: bound(0.1)}
	higher := metricSpec{Name: "labels_per_s", Unit: "1/s", Better: "higher", Bound: bound(0.1)}
	exact := metricSpec{Name: "x", Unit: "F", Better: "lower", Bound: bound(0)}
	setup := metricSpec{Name: "setup_s", Unit: "s", Better: "lower", Bound: bound(0.1)}
	quick := []float64{0.030, 0.034, 0.026, 0.031, 0.029, 0.038, 0.022, 0.030, 0.033, 0.027}
	steady := []float64{10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.01, 9.99, 10.0}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		desc string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same runs", lower, steady, steady, verdictWithin},
		{"5% slower, inside a 10% bound", lower, steady, scale(steady, 1.05), verdictWithin},
		{"20% slower", lower, steady, scale(steady, 1.2), verdictWorse},
		{"20% faster", lower, steady, scale(steady, 0.8), verdictBetter},
		{"throughput 20% lower", higher, steady, scale(steady, 0.8), verdictWorse},
		{"throughput 20% higher", higher, steady, scale(steady, 1.2), verdictBetter},
		{"spread wider than the bound, mixed", lower, []float64{5, 10, 15, 20}, []float64{6, 11, 14, 21}, verdictUnresolved},
		{"spread wider than the bound, every run better", lower, []float64{50, 60, 70, 80}, []float64{5, 6, 7, 8}, verdictBetter},
		{"exact metric unchanged", exact, []float64{0.02, 0.02}, []float64{0.02, 0.02}, verdictWithin},
		{"exact metric moved up", exact, []float64{0.02}, []float64{0.0201}, verdictWorse},
		{"single runs, slower beyond the bound", lower, []float64{10}, []float64{12}, verdictWorse},
		{"sub-second set-up 30% slower, inside the half-second floor", setup, quick, scale(quick, 1.3), verdictWithin},
		{"sub-second set-up slower by more than the floor's bound", setup, quick, scale(quick, 3), verdictWorse},
		{"long set-up 20% slower", setup, scale(steady, 0.1), scale(steady, 0.12), verdictWorse},
	} {
		if got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.desc, got, tc.want)
		}
	}
}

func TestCompareCountsWorse(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	run := func(p50 float64) record {
		return record{Workload: "label-memory", Metrics: map[string]metricValue{"op_p50_ms": {Value: p50, Unit: "ms"}}}
	}
	if n := compare(io.Discard, sp, []record{run(1)}, []record{run(1.01)}); n != 0 {
		t.Errorf("1%% slower: %d worse, want 0", n)
	}
	if n := compare(io.Discard, sp, []record{run(1)}, []record{run(2)}); n != 1 {
		t.Errorf("2x slower: %d worse, want 1", n)
	}
	dir := t.TempDir()
	for i, p50 := range []float64{1, 2} {
		if err := writeJSON(filepath.Join(dir, fmt.Sprint(i), "r.json"), resultFile{Runs: []record{run(p50)}}); err != nil {
			t.Fatal(err)
		}
	}
	if code := compareMain([]string{"-spec", "../BENCHMARK.json", filepath.Join(dir, "0"), filepath.Join(dir, "1", "r.json")}); code != 1 {
		t.Errorf("compare exit status %d, want 1", code)
	}
}

func TestBenchmarkJSON(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := loadLayers("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.validateLayers(rows); err != nil {
		t.Fatal(err)
	}
	var inSpec, inCode []string
	for _, w := range sp.Workloads {
		inSpec = append(inSpec, w.Name)
	}
	for _, w := range workloads {
		inCode = append(inCode, w.name)
	}
	if !slices.Equal(inSpec, inCode) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", inSpec, inCode)
	}
}

func TestSpecValidationRejects(t *testing.T) {
	good, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	clone := func() *spec {
		data, _ := json.Marshal(good)
		var s spec
		if err := json.Unmarshal(data, &s); err != nil {
			t.Fatal(err)
		}
		return &s
	}
	for _, tc := range []struct {
		desc   string
		mutate func(s *spec)
	}{
		{"metric name with a space", func(s *spec) { s.EndToEnd[1].Name = "labels per s" }},
		{"metric name with a slash", func(s *spec) { s.PerLayer[0].Name = "server/transport" }},
		{"repeated name", func(s *spec) { s.PerLayer[1].Name = s.PerLayer[0].Name }},
		{"17 end-to-end metrics", func(s *spec) {
			for i := len(s.EndToEnd); i < 17; i++ {
				s.EndToEnd = append(s.EndToEnd, metricSpec{Name: fmt.Sprintf("m%d", i), Unit: "s", Better: "lower", Bound: bound(0.1)})
			}
		}},
		{"129 per-layer metrics", func(s *spec) {
			for i := len(s.PerLayer); i < 129; i++ {
				s.PerLayer = append(s.PerLayer, metricSpec{Name: fmt.Sprintf("l%d", i), Unit: "us", Better: "lower"})
			}
		}},
		{"bound above 0.25", func(s *spec) { s.EndToEnd[1].Bound = bound(0.3) }},
		{"per-layer bound", func(s *spec) { s.PerLayer[0].Bound = bound(0.1) }},
		{"no setup_s", func(s *spec) { s.EndToEnd[0].Name = "boot_s" }},
		{"setup_s bound not the largest", func(s *spec) { s.EndToEnd[0].Bound = bound(0.05) }},
		{"one workload", func(s *spec) { s.Workloads = s.Workloads[:1] }},
		{"two-line why", func(s *spec) { s.Workloads[0].Why = "a\nb" }},
		{"absolute command path", func(s *spec) { s.Command = []string{"/bin/sh"} }},
		{"path leaving the repository", func(s *spec) { s.Paths = []string{"../x"} }},
		{"unit with a space", func(s *spec) { s.EndToEnd[1].Unit = "per s" }},
	} {
		s := clone()
		tc.mutate(s)
		if err := s.validate(); err == nil {
			t.Errorf("%s: accepted", tc.desc)
		}
	}

	rows, err := loadLayers("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		desc   string
		mutate func(r []layerRow)
	}{
		{"unknown layer metric", func(r []layerRow) { r[0].Metrics = append(r[0].Metrics, "server.nope_us") }},
		{"unknown end-to-end metric", func(r []layerRow) { r[0].Moves[0].Metric = "latency_ms" }},
		{"unknown workload", func(r []layerRow) { r[0].Moves[0].Workloads = []string{"label-disk"} }},
		{"unknown unmoved workload", func(r []layerRow) { r[0].Unmoved = []string{"nope"} }},
		{"metric in two layers", func(r []layerRow) { r[1].Metrics = append(r[1].Metrics, r[0].Metrics[0]) }},
		{"metric in no layer", func(r []layerRow) { r[0].Metrics = r[0].Metrics[1:] }},
	} {
		data, _ := json.Marshal(rows)
		var c []layerRow
		if err := json.Unmarshal(data, &c); err != nil {
			t.Fatal(err)
		}
		tc.mutate(c)
		if err := good.validateLayers(c); err == nil {
			t.Errorf("%s: accepted", tc.desc)
		}
	}
}

// TestSmokeTraced runs all four workloads at tiny sizes through the traced
// in-process path, so that a change breaking any of them fails here.
func TestSmokeTraced(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			r := newRun(w.name, 7, 0.4, tinySizes, filepath.Join(dir, "work"))
			r.traced = true
			r.spanFile = filepath.Join(dir, "spans.json")
			if err := w.traced(r); err != nil {
				t.Fatal(err)
			}
			rec, err := r.finish(sp.PerLayer)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d problems=%q", rec.Correct, rec.Attempted, rec.Failed, rec.Problems)
			}
			data, err := os.ReadFile(r.spanFile)
			if err != nil {
				t.Fatal(err)
			}
			var sf spanFile
			if err := json.Unmarshal(data, &sf); err != nil {
				t.Fatal(err)
			}
			if len(sf.Spans) == 0 {
				t.Fatal("no spans recorded")
			}
			if w.name != "offline-paper" && rec.Metrics["server.propose_us"].Value <= 0 {
				t.Errorf("server.propose_us = %v, want > 0", rec.Metrics["server.propose_us"].Value)
			}
		})
	}
}
