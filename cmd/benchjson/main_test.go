package main

import (
	"encoding/json"
	"io"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: oasis
BenchmarkDraw-2                 26311977                48.76 ns/op            0 B/op          0 allocs/op
BenchmarkProposeBatch/n=64-2      225465              4493 ns/op             512 B/op          1 allocs/op
BenchmarkServerPropose-2-2          4334            366366 ns/op
BenchmarkInstrumental-4          2630983               487.3 ns/op
PASS
ok      oasis   12.3s
`

func TestParseBenchmarksStripsProcsSuffix(t *testing.T) {
	var echo strings.Builder
	got, err := parseBenchmarks(strings.NewReader(sample), &echo, 2)
	if err != nil {
		t.Fatal(err)
	}
	if echo.String() != sample {
		t.Errorf("echoed output differs from the input:\n%s", echo.String())
	}
	want := []struct {
		name   string
		iters  int64
		ns     float64
		allocs int64 // -1: not recorded
	}{
		{"BenchmarkDraw", 26311977, 48.76, 0},
		{"BenchmarkProposeBatch/n=64", 225465, 4493, 1},
		{"BenchmarkServerPropose-2", 4334, 366366, -1},
		// Another host's suffix is kept: it is not this run's GOMAXPROCS.
		{"BenchmarkInstrumental-4", 2630983, 487.3, -1},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		b := got[i]
		if b.Name != w.name || b.Iterations != w.iters || b.NsPerOp != w.ns {
			t.Errorf("line %d: %+v, want %s %d %v", i, b, w.name, w.iters, w.ns)
		}
		if (b.AllocsOp == nil) != (w.allocs < 0) || (b.AllocsOp != nil && *b.AllocsOp != w.allocs) {
			t.Errorf("line %d: allocs %v, want %d", i, b.AllocsOp, w.allocs)
		}
	}

	// With GOMAXPROCS 1, go test adds no suffix, so none is stripped.
	one, err := parseBenchmarks(strings.NewReader("BenchmarkDraw-1   10   5 ns/op\n"), io.Discard, 1)
	if err != nil || one[0].Name != "BenchmarkDraw-1" {
		t.Errorf("GOMAXPROCS 1: %+v, %v; want the name kept", one, err)
	}
	if _, err := parseBenchmarks(strings.NewReader("PASS\n"), io.Discard, 2); err == nil {
		t.Error("output without benchmark lines was accepted")
	}
}

func TestAppendRunKeepsEarlierRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	old := Run{Label: "old", Benchmarks: []Benchmark{{Name: "BenchmarkDraw", Iterations: 1, NsPerOp: 2}}}
	if err := appendRun(path, old); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(first), "num_cpu") || strings.Contains(string(first), "gomaxprocs") {
		t.Errorf("a run without host fields gained them:\n%s", first)
	}
	cur := Run{Label: "new", NumCPU: 2, GOMAXPROCS: 2, Benchmarks: old.Benchmarks}
	if err := appendRun(path, cur); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file File
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.Schema != 1 || len(file.Runs) != 2 || file.Runs[0].Label != "old" || file.Runs[1].Label != "new" {
		t.Fatalf("trajectory %+v, want runs old then new", file)
	}
	if r := file.Runs[1]; r.NumCPU != 2 || r.GOMAXPROCS != 2 {
		t.Errorf("host fields read back as num_cpu %d, gomaxprocs %d; want 2, 2", r.NumCPU, r.GOMAXPROCS)
	}
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := appendRun(path, cur); err == nil {
		t.Error("appended to a file that is not a trajectory")
	}
}

// TestParseBenchmarksKeepsEveryUnit parses the line shapes of benchmarks
// that report a metric of their own before the -benchmem columns: B/op and
// allocs/op are kept wherever they sit in the line, and every other unit
// lands in Metrics.
func TestParseBenchmarksKeepsEveryUnit(t *testing.T) {
	const lines = "BenchmarkSessionCreate/inline-2         \t       1\t 245551348 ns/op\t  26662632 walB/op\t146752600 B/op\t     113 allocs/op\n" +
		"BenchmarkPoolAcquire/mmap-2         \t       3\t   3047729 ns/op\t2795.43 MB/s\t 1049312 B/op\t       9 allocs/op\n"
	got, err := parseBenchmarks(strings.NewReader(lines), io.Discard, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []Benchmark{
		{Name: "BenchmarkSessionCreate/inline", Iterations: 1, NsPerOp: 245551348, BytesPerOp: 146752600,
			Metrics: map[string]float64{"walB/op": 26662632}},
		{Name: "BenchmarkPoolAcquire/mmap", Iterations: 3, NsPerOp: 3047729, BytesPerOp: 1049312,
			Metrics: map[string]float64{"MB/s": 2795.43}},
	}
	allocs := []int64{113, 9}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		b := got[i]
		if b.Name != w.Name || b.Iterations != w.Iterations || b.NsPerOp != w.NsPerOp || b.BytesPerOp != w.BytesPerOp ||
			!maps.Equal(b.Metrics, w.Metrics) {
			t.Errorf("line %d: %+v, want %+v", i, b, w)
		}
		if b.AllocsOp == nil || *b.AllocsOp != allocs[i] {
			t.Errorf("line %d: allocs %v, want %d", i, b.AllocsOp, allocs[i])
		}
	}
}

// TestRewriteKeepsLedgerBytes appends a run to a copy of the repository's
// ledger: every earlier run must come back byte for byte, so a field the
// parser gained never rewrites the runs recorded before it.
func TestRewriteKeepsLedgerBytes(t *testing.T) {
	ledger, err := os.ReadFile("../../BENCH_core.json")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, ledger, 0o644); err != nil {
		t.Fatal(err)
	}
	run := Run{Label: "new", Benchmarks: []Benchmark{{Name: "BenchmarkX", Iterations: 1, NsPerOp: 2, Metrics: map[string]float64{"MB/s": 3}}}}
	if err := appendRun(path, run); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file File
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	file.Runs = file.Runs[:len(file.Runs)-1]
	old, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(append(old, '\n')) != string(ledger) {
		t.Error("rewriting the ledger changed the bytes of its earlier runs")
	}
}
