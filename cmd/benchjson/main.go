// Command benchjson converts `go test -bench` output on stdin into a JSON
// benchmark record and appends it to a trajectory file, so every PR leaves a
// perf baseline for the next one to beat:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson -out BENCH_core.json -label my-change
//
// The output file holds a list of runs; each run records the label, the
// platform, the host's CPU count and GOMAXPROCS, the timestamp and every
// parsed benchmark line: iterations, ns/op, B/op and allocs/op (with
// -benchmem), and any other unit the line reports (MB/s, or a custom
// b.ReportMetric unit such as walB/op), wherever in the line each appears.
// `go test` appends "-N" to a benchmark's name when it runs
// with GOMAXPROCS N > 1; benchjson drops the suffix that matches its own
// GOMAXPROCS, so a benchmark keeps one name across hosts. Run both
// processes in one environment, as `make bench-json` does. An existing file is
// read first and the new run appended, so the file accumulates the perf
// trajectory across commits. Use `make bench-json` for the canonical
// hot-path benchmark set.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	BytesPerOp float64 `json:"bytes_per_op,omitempty"`
	AllocsOp   *int64  `json:"allocs_per_op,omitempty"`
	// Metrics holds the line's other units (MB/s, custom metrics) by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Run is one invocation of the benchmark suite.
type Run struct {
	Label      string      `json:"label"`
	Date       string      `json:"date"`
	GoOS       string      `json:"goos"`
	GoArch     string      `json:"goarch"`
	GoVersion  string      `json:"go_version"`
	NumCPU     int         `json:"num_cpu,omitempty"`
	GOMAXPROCS int         `json:"gomaxprocs,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// File is the trajectory: a list of runs, oldest first.
type File struct {
	Schema int   `json:"schema"`
	Runs   []Run `json:"runs"`
}

// benchLine matches a result line up to ns/op and captures the "value unit"
// pairs after it, e.g.
//
//	BenchmarkDraw-8   12345678   95.31 ns/op   0 B/op   0 allocs/op
//	BenchmarkPoolAcquire/mmap-2   3   3047729 ns/op   2795.43 MB/s   1049312 B/op   9 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([0-9.]+) ns/op((?:\s+-?[0-9.]+ \S+)*)`)

func main() {
	out := flag.String("out", "BENCH_core.json", "trajectory file to append the run to")
	label := flag.String("label", "dev", "label for this run (e.g. a PR or commit id)")
	flag.Parse()

	procs := runtime.GOMAXPROCS(0)
	run := Run{
		Label:      *label,
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: procs,
	}
	var err error
	if run.Benchmarks, err = parseBenchmarks(os.Stdin, os.Stdout, procs); err == nil {
		err = appendRun(*out, run)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: appended run %q (%d benchmarks) to %s\n", *label, len(run.Benchmarks), *out)
}

// parseBenchmarks reads `go test -bench` output from r, passing every line
// through to echo so the human still sees the run, and returns the parsed
// benchmark lines with the "-procs" name suffix dropped.
func parseBenchmarks(r io.Reader, echo io.Writer, procs int) ([]Benchmark, error) {
	suffix := "-" + strconv.Itoa(procs)
	var out []Benchmark
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		bench := Benchmark{Name: m[1], Iterations: iters, NsPerOp: ns}
		if procs > 1 {
			bench.Name = strings.TrimSuffix(bench.Name, suffix)
		}
		fields := strings.Fields(m[4])
		for j := 0; j+1 < len(fields); j += 2 {
			v, _ := strconv.ParseFloat(fields[j], 64)
			switch unit := fields[j+1]; unit {
			case "B/op":
				bench.BytesPerOp = v
			case "allocs/op":
				allocs := int64(v)
				bench.AllocsOp = &allocs
			default:
				if bench.Metrics == nil {
					bench.Metrics = make(map[string]float64)
				}
				bench.Metrics[unit] = v
			}
		}
		out = append(out, bench)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read stdin: %w", err)
	}
	if len(out) == 0 {
		return nil, errors.New("no benchmark lines found on stdin")
	}
	return out, nil
}

// appendRun appends run to the trajectory file at path, creating it if it
// does not exist.
func appendRun(path string, run Run) error {
	file := File{Schema: 1}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			return fmt.Errorf("existing %s is not a trajectory file: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	file.Schema = 1
	file.Runs = append(file.Runs, run)
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
