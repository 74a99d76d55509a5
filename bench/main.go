// Command bench is the repository benchmark: four workloads that drive the
// real cmd/oasis-server binary (or, for the paper workload, the public
// erbench harness) in a child process and report end-to-end metrics, plus a
// traced mode that rebuilds each workload in-process and times the calls
// into each layer. BENCHMARK.json at the repository root names the
// workloads and metrics; README.md in this directory explains them.
//
// Run it from the repository root through the wrapper, which builds this
// program and the server first:
//
//	bash bench/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//	bash bench/run.sh compare A.json B.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A result file with the run's
// environment, operation counts and details is written under
// .bench_build/results unless -out says otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir holds everything the benchmark builds or writes, relative to the
// repository root it runs from.
const buildDir = ".bench_build"

// workload is one benchmark workload: the end-to-end run against a child
// process and the traced in-process run.
type workload struct {
	name   string
	run    func(*run) error
	traced func(*run) error
}

var workloads = []workload{
	{"label-durable", func(r *run) error { return runLabel(r, true) }, func(r *run) error { return traceLabel(r, true) }},
	{"label-memory", func(r *run) error { return runLabel(r, false) }, func(r *run) error { return traceLabel(r, false) }},
	{"session-churn", runChurn, traceChurn},
	{"offline-paper", runOffline, traceOffline},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// run is one workload run in progress: its inputs, where it may write, and
// the outcome it accumulates.
type run struct {
	workload  string
	seed      uint64
	seconds   float64
	sizes     sizes
	serverBin string
	workDir   string
	spanFile  string
	traced    bool

	mu        sync.Mutex
	attempted int64
	failed    int64
	problems  []string
	ops       map[string]int64
	metrics   map[string]float64
	detail    map[string]any
}

func newRun(workload string, seed uint64, seconds float64, sz sizes, workDir string) *run {
	return &run{
		workload: workload, seed: seed, seconds: seconds, sizes: sz, workDir: workDir,
		ops: map[string]int64{}, metrics: map[string]float64{}, detail: map[string]any{},
	}
}

// op counts n attempted operations of one kind.
func (r *run) op(kind string, n int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops[kind] += n
	r.attempted += n
}

const maxProblems = 20

// fail records a failed or refused operation, or a failed correctness check.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *run) metric(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = v
}

func (r *run) note(key string, v any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.detail[key] = v
}

// dir returns a fresh, empty directory for one child's data.
func (r *run) dir(name string) (string, error) {
	d := filepath.Join(r.workDir, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

func (r *run) deadline() time.Time {
	return time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one workload run as stored in a result file.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Problems  []string               `json:"problems,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Ops       map[string]int64       `json:"ops"`
	Detail    map[string]any         `json:"detail"`
}

// env is the host and build a result was measured on.
type env struct {
	NumCPU          int     `json:"nproc"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	GoVersion       string  `json:"go_version"`
	Commit          string  `json:"commit"`
	Started         string  `json:"started"`
	GeneratorCPUSec float64 `json:"generator_cpu_s"`
}

type resultFile struct {
	Env  env      `json:"env"`
	Runs []record `json:"runs"`
}

// commit reads the VCS revision the toolchain stamped into this binary; a
// checkout without version control has none.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// finish turns a completed run into its record, checking that it produced
// exactly the metrics the spec lists for its mode.
func (r *run) finish(list []metricSpec) (record, error) {
	rec := record{
		Workload: r.workload, Seed: r.seed, Seconds: r.seconds, Traced: r.traced,
		Attempted: r.attempted, Failed: r.failed, Problems: r.problems,
		Metrics: map[string]metricValue{}, Ops: r.ops, Detail: r.detail,
	}
	rec.Correct = r.failed == 0 && len(r.problems) == 0 && r.attempted > 0
	for _, m := range list {
		v, ok := r.metrics[m.Name]
		if !ok {
			return rec, fmt.Errorf("workload %s did not measure %s", r.workload, m.Name)
		}
		rec.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range r.metrics {
		if _, ok := rec.Metrics[name]; !ok {
			return rec, fmt.Errorf("workload %s measured %s, which BENCHMARK.json does not list", r.workload, name)
		}
	}
	return rec, nil
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case offlineChildCmd:
			if err := offlineChild(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			return
		}
	}
	if err := benchMain(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func benchMain() error {
	var (
		name     = flag.String("workload", "", "workload to run (default: all, one after another)")
		seed     = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 0, "measured seconds per workload (default: BENCHMARK.json run_seconds)")
		traceArg = flag.Int("trace", 0, "1: traced in-process run reporting the per-layer metrics; 0: end-to-end run")
		out      = flag.String("out", "", "result file (default: .bench_build/results/<workload>-seed<N>[-trace].json)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if *traceArg != 0 && *traceArg != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		selected = []workload{w}
	}
	serverBin, err := filepath.Abs(filepath.Join(buildDir, "bin", "oasis-server"))
	if err != nil {
		return err
	}
	if _, err := os.Stat(serverBin); err != nil && *traceArg == 0 {
		return fmt.Errorf("server binary: %w (build it with bash bench/run.sh)", err)
	}

	traced := *traceArg == 1
	list := sp.EndToEnd
	if traced {
		list = sp.PerLayer
	}
	suffix := ""
	if traced {
		suffix = "-trace"
	}
	res := resultFile{Env: env{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Started: time.Now().UTC().Format(time.RFC3339),
	}}
	for _, w := range selected {
		workDir, err := filepath.Abs(filepath.Join(buildDir, "work", w.name))
		if err != nil {
			return err
		}
		r := newRun(w.name, *seed, *seconds, fullSizes, workDir)
		r.serverBin = serverBin
		r.traced = traced
		r.spanFile = filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		fn := w.run
		if traced {
			fn = w.traced
		}
		if err := fn(r); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if err := os.RemoveAll(workDir); err != nil {
			return err
		}
		rec, err := r.finish(list)
		if err != nil {
			return err
		}
		res.Runs = append(res.Runs, rec)
		printRecord(os.Stderr, rec, list)
	}
	res.Env.GeneratorCPUSec = selfCPU()

	file := *out
	if file == "" {
		base := "all"
		if *name != "" {
			base = *name
		}
		file = filepath.Join(buildDir, "results", fmt.Sprintf("%s-seed%d%s.json", base, *seed, suffix))
	}
	if err := writeJSON(file, res); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "result file: %s\n", file)

	// The last line of standard output: one run's line, or for several
	// workloads their counts summed and the metrics of each prefixed with
	// its workload name.
	line := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, rec := range res.Runs {
		line.Correct = line.Correct && rec.Correct
		line.Attempted += rec.Attempted
		line.Failed += rec.Failed
		for k, v := range rec.Metrics {
			if len(res.Runs) > 1 {
				k = rec.Workload + "." + k
			}
			line.Metrics[k] = v
		}
	}
	enc, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(enc))
	return nil
}

// printRecord writes a human-readable summary of one run.
func printRecord(w *os.File, rec record, list []metricSpec) {
	fmt.Fprintf(w, "== %s seed=%d traced=%v correct=%v attempted=%d failed=%d\n",
		rec.Workload, rec.Seed, rec.Traced, rec.Correct, rec.Attempted, rec.Failed)
	for _, m := range list {
		v := rec.Metrics[m.Name]
		fmt.Fprintf(w, "   %-36s %14.6g %s\n", m.Name, v.Value, v.Unit)
	}
	kinds := make([]string, 0, len(rec.Ops))
	for k := range rec.Ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var ops []string
	for _, k := range kinds {
		ops = append(ops, fmt.Sprintf("%s=%d", k, rec.Ops[k]))
	}
	fmt.Fprintf(w, "   ops: %s\n", strings.Join(ops, " "))
	for _, p := range rec.Problems {
		fmt.Fprintf(w, "   problem: %s\n", p)
	}
}

func writeJSON(file string, v any) error {
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(file, append(data, '\n'), 0o644)
}
