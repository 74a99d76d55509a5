package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"syscall"
	"time"

	"oasis/erbench"
)

// offlineChildCmd is the hidden subcommand the offline workload re-executes
// this program with, so the paper harness runs in a child process of its own
// whose memory and CPU the kernel reports separately.
const offlineChildCmd = "offline-child"

// offlineReport is what the offline child prints on its standard output.
type offlineReport struct {
	SetupS     []float64            `json:"setup_s"`
	BuildS     map[string]float64   `json:"build_s"`
	Calls      map[string][]float64 `json:"calls_ms"`
	Cycles     []float64            `json:"cycles_ms"`
	Labels     int64                `json:"labels"`
	ElapsedS   float64              `json:"elapsed_s"`
	AbsErr     map[string]float64   `json:"abs_err"`
	RunUsLabel map[string]float64   `json:"run_us_per_label"`
}

func offlineChild(args []string) error {
	fs := flag.NewFlagSet(offlineChildCmd, flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "")
	seconds := fs.Float64("seconds", 10, "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rep, _, err := offlinePaper(fullSizes, *seed, *seconds, nil)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// offlinePools builds the three paper pools, sz.setupReps times, and
// returns the last set, each set-up's duration, and the last set-up's
// duration per dataset. tr, when set, records each build as a span.
func offlinePools(sz sizes, seed uint64, tr *tracer) ([]*erbench.BuiltPool, []float64, map[string]float64, error) {
	var (
		built  []*erbench.BuiltPool
		setups []float64
		each   = map[string]float64{}
	)
	for range sz.setupReps {
		t0 := time.Now()
		built = built[:0]
		for i, name := range offlineDatasets {
			var (
				b   *erbench.BuiltPool
				err error
			)
			d := tr.timed("erbench", "erbench.build_pool", func() {
				b, err = erbench.BuildPool(name, erbench.PoolConfig{Scale: sz.offlineScale, Calibrate: true, Seed: mix(seed, 4, uint64(i))})
			})
			if err != nil {
				return nil, nil, nil, err
			}
			each[name] = d.Seconds()
			built = append(built, b)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return built, setups, each, nil
}

// offlinePaper is the offline workload: build the pools, then run cycles of
// erbench.FinalError for OASIS (K = 30), one call per dataset, until the
// measured time is up. The errors reported are the first cycle's. It
// returns the built pools too; tr, when set, records builds and calls as
// spans.
func offlinePaper(sz sizes, seed uint64, seconds float64, tr *tracer) (*offlineReport, []*erbench.BuiltPool, error) {
	built, setups, each, err := offlinePools(sz, seed, tr)
	if err != nil {
		return nil, nil, err
	}
	rep := &offlineReport{
		SetupS: setups, BuildS: each, Calls: map[string][]float64{},
		AbsErr: map[string]float64{}, RunUsLabel: map[string]float64{},
	}
	labelsOf := map[string]int64{}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	start := time.Now()
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		t0 := time.Now()
		for i, b := range built {
			name := offlineDatasets[i]
			var m float64
			d := tr.timed("erbench", "erbench.final_error", func() {
				m, _, err = erbench.FinalError(b, erbench.OASIS, erbench.HarnessConfig{
					Budget: sz.offlineBudget[i], Runs: sz.offlineRuns, Seed: mix(seed, 5, uint64(k), uint64(i)), Workers: 2,
				})
			})
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", name, err)
			}
			rep.Calls[name] = append(rep.Calls[name], float64(d)/1e6)
			if k == 0 {
				rep.AbsErr[name] = m
			}
			n := int64(sz.offlineRuns * sz.offlineBudget[i])
			rep.Labels += n
			labelsOf[name] += n
		}
		rep.Cycles = append(rep.Cycles, float64(time.Since(t0))/1e6)
	}
	rep.ElapsedS = time.Since(start).Seconds()
	for name, calls := range rep.Calls {
		total := 0.0
		for _, ms := range calls {
			total += ms
		}
		rep.RunUsLabel[name] = total * 1e3 / float64(labelsOf[name])
	}
	return rep, built, nil
}

// runOffline is the end-to-end run of offline-paper in a child process.
func runOffline(r *run) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, offlineChildCmd, "-seed", fmt.Sprint(r.seed), "-seconds", fmt.Sprint(r.seconds))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("offline child: %w: %s", err, stderr.Bytes())
	}
	var rep offlineReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return fmt.Errorf("offline child output: %w", err)
	}
	var u usage
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		u = usage{MaxRSSMB: float64(ru.Maxrss) / 1024, CPUSec: tv(ru.Utime) + tv(ru.Stime)}
	}
	r.op("setup", int64(len(rep.SetupS)))
	checkOffline(r, &rep)
	var cycles latencies
	for _, ms := range rep.Cycles {
		cycles.add(time.Duration(ms * 1e6))
	}
	s := cycles.summary()
	r.metric("setup_s", median(rep.SetupS))
	r.metric("labels_per_s", float64(rep.Labels)/rep.ElapsedS)
	r.metric("op_p50_ms", s.P50Ms)
	r.metric("op_tail_ms", s.TailMs)
	r.metric("rss_peak_mb", u.MaxRSSMB)
	r.note("setup_s_all", rep.SetupS)
	r.note("cycle", s)
	r.note("abs_err", rep.AbsErr)
	r.note("abs_err_f", meanAbsErr(rep.AbsErr))
	r.note("run_us_per_label", rep.RunUsLabel)
	r.note("build_s", rep.BuildS)
	r.note("labels", rep.Labels)
	r.note("elapsed_s", rep.ElapsedS)
	r.note("child_usage", u)
	return nil
}

// checkOffline counts the offline workload's calls and checks that every
// dataset's mean absolute error is a finite number in [0, 1].
func checkOffline(r *run, rep *offlineReport) {
	for _, name := range offlineDatasets {
		r.op("final_error", int64(len(rep.Calls[name])))
		if v, ok := rep.AbsErr[name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1 {
			r.fail("%s: mean |F̂−F| is %v", name, v)
		}
	}
}

func meanAbsErr(m map[string]float64) float64 {
	var xs []float64
	for _, name := range offlineDatasets {
		if v, ok := m[name]; ok {
			xs = append(xs, v)
		}
	}
	return mean(xs)
}
