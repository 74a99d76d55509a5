package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Verdicts of compare, one per (metric, workload) pair.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// secondsFloor is the absolute floor of timings in seconds: a bound on such
// a metric is a share of its median or of half a second, whichever is
// larger, so that a set-up of a few tens of milliseconds is not judged by
// its process start-up jitter.
const secondsFloor = 0.5

// scaleOf is what metric m's bound and spread are shares of, for a median
// med.
func scaleOf(m metricSpec, med float64) float64 {
	if m.Unit == "s" {
		return max(abs(med), secondsFloor)
	}
	return abs(med)
}

// spreadOf is the interquartile distance of values as a share of
// scaleOf(m, median); zero for fewer than two values.
func spreadOf(m metricSpec, values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(values)
	s := scaleOf(m, q2)
	if s == 0 {
		return 0
	}
	return (q3 - q1) / s
}

// verdict compares the baseline runs a with the candidate runs b of one
// metric on one workload, by the choosing-metrics rules:
//
//   - unresolved: either side's run-to-run spread (interquartile distance as
//     a share of the median) is wider than the bound, and not every run of b
//     reads better than every run of a;
//   - better: b wins at least nine tenths of the runs paired in order (ties
//     count for neither) and the medians differ, in b's favour, by more than
//     a's interquartile distance;
//   - worse: b's median is worse than a's by more than the bound;
//   - within bound: anything else.
//
// For a metric in seconds, "share of the median" is a share of the median or
// of secondsFloor, whichever is larger.
func verdict(m metricSpec, a, b []float64) string {
	bound := 0.0
	if m.Bound != nil {
		bound = *m.Bound
	}
	higher := m.Better == "higher"
	better := func(x, y float64) bool { // x reads better than y
		if higher {
			return x > y
		}
		return x < y
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	if max(spreadOf(m, a), spreadOf(m, b)) > bound && !allBetter {
		return verdictUnresolved
	}
	ma, mb := median(a), median(b)
	pairs, wins := min(len(a), len(b)), 0
	for i := range pairs {
		if better(b[i], a[i]) {
			wins++
		}
	}
	iqr := 0.0
	if len(a) >= 2 {
		q1, _, q3 := quartiles(a)
		iqr = q3 - q1
	}
	diff := mb - ma
	if !higher {
		diff = -diff
	}
	if pairs > 0 && float64(wins) >= 0.9*float64(pairs) && diff > iqr {
		return verdictBetter
	}
	if -diff > bound*scaleOf(m, ma) {
		return verdictWorse
	}
	return verdictWithin
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// loadResults reads result files: each argument is a file or a directory of
// them.
func loadResults(arg string) ([]record, error) {
	files := []string{arg}
	if fi, err := os.Stat(arg); err != nil {
		return nil, err
	} else if fi.IsDir() {
		if files, err = filepath.Glob(filepath.Join(arg, "*.json")); err != nil {
			return nil, err
		}
	}
	var out []record
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, rf.Runs...)
	}
	return out, nil
}

// compareMain is `bench compare A B`: one verdict per end-to-end metric and
// workload present on both sides, exit status 1 on any worse.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-spec BENCHMARK.json] BASELINE CANDIDATE (result files or directories)")
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	a, err := loadResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := loadResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if worse := compare(os.Stdout, sp, a, b); worse > 0 {
		return 1
	}
	return 0
}

// compare prints the verdict table and returns the number of worse pairs.
func compare(w io.Writer, sp *spec, a, b []record) int {
	values := func(recs []record, workload, metric string) []float64 {
		var out []float64
		for _, r := range recs {
			if r.Workload == workload && !r.Traced {
				if v, ok := r.Metrics[metric]; ok {
					out = append(out, v.Value)
				}
			}
		}
		return out
	}
	var names []string
	for _, ws := range sp.Workloads {
		names = append(names, ws.Name)
	}
	sort.Strings(names)
	worse := 0
	fmt.Fprintf(w, "%-16s %-14s %5s %14s %14s %9s  %s\n", "workload", "metric", "runs", "baseline", "candidate", "change", "verdict")
	for _, wl := range names {
		for _, m := range sp.EndToEnd {
			va, vb := values(a, wl, m.Name), values(b, wl, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(m, va, vb)
			if v == verdictWorse {
				worse++
			}
			ma, mb := median(va), median(vb)
			change := 0.0
			if ma != 0 {
				change = (mb - ma) / abs(ma) * 100
			}
			fmt.Fprintf(w, "%-16s %-14s %2d/%-2d %14.6g %14.6g %+8.2f%%  %s\n", wl, m.Name, len(va), len(vb), ma, mb, change, v)
		}
	}
	return worse
}
