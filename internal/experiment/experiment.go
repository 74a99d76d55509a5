// Package experiment is the evaluation harness behind every table and figure
// of the paper's §6: it runs randomised estimation methods repeatedly against
// a pool, records estimate trajectories indexed by *labels consumed* (the
// paper's budget accounting, footnote 5), and aggregates expected absolute
// error and standard-deviation curves (Figure 2/3), per-run CPU timings
// (Table 3), single-run convergence diagnostics (Figure 4) and fixed-budget
// error summaries with confidence intervals (Figure 5).
package experiment

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"oasis/internal/oracle"
	"oasis/internal/pool"
	"oasis/internal/rng"
	"oasis/internal/sampler"
	"oasis/internal/stats"
)

// Factory constructs a fresh method instance for one run. Seeds must fully
// determine the method's randomness so runs are reproducible.
type Factory struct {
	// Name labels the method in outputs ("OASIS 30", "IS", ...).
	Name string
	// New builds the method for a run with the given seed.
	New func(seed uint64) (sampler.Method, error)
}

// RunResult is one run's estimate trajectory sampled at checkpoints.
type RunResult struct {
	// Estimates[c] is the estimate immediately after Checkpoints[c] labels
	// were consumed (NaN where the estimate was undefined, or where the run
	// ended before reaching the checkpoint).
	Estimates []float64
	// LabelsConsumed is the total distinct labels used.
	LabelsConsumed int
	// Iterations is the number of draws taken (see Curves.MeanIterations).
	Iterations int
	// Duration is the wall-clock time of the sampling loop.
	Duration time.Duration
}

// RunOne runs method m against the oracle o until `budget` distinct labels
// are consumed, recording the estimate at each checkpoint. Checkpoints must
// be sorted ascending. A run that hits sampler.Run's draw cap returns its
// partial trajectory with sampler.ErrStalled.
func RunOne(m sampler.Method, o oracle.Oracle, budget int, checkpoints []int) (*RunResult, error) {
	res := &RunResult{Estimates: make([]float64, len(checkpoints))}
	for i := range res.Estimates {
		res.Estimates[i] = math.NaN()
	}
	next := 0
	start := time.Now()
	labels, draws, err := sampler.Run(m, o, budget, func(labels int) error {
		for next < len(checkpoints) && checkpoints[next] <= labels {
			res.Estimates[next] = m.Estimate()
			next++
		}
		return nil
	})
	res.Duration = time.Since(start)
	res.LabelsConsumed, res.Iterations = labels, draws
	return res, err
}

// Curves aggregates many runs of one method.
type Curves struct {
	Name        string
	Checkpoints []int
	// MeanAbsErr[c] = E|F̂ − F| over runs with a defined estimate.
	MeanAbsErr []float64
	// StdDev[c] is the standard deviation of the estimate over defined runs.
	StdDev []float64
	// AbsErrStdDev[c] is the standard deviation of |F̂ − F| over defined
	// runs: the spread behind a confidence interval on MeanAbsErr[c]. It
	// differs from StdDev[c] whenever runs straddle the truth.
	AbsErrStdDev []float64
	// DefinedFrac[c] is the fraction of runs with a defined estimate — the
	// paper plots a curve only once this exceeds 0.95.
	DefinedFrac []float64
	// MeanIterations and MeanDuration summarise run cost (Table 3).
	// MeanIterations counts sampler.Run's draws. For OASIS a draw is one
	// proposal of the served engine, which folds its free re-draws of
	// labelled pairs in itself, so it equals the labels consumed.
	MeanIterations float64
	MeanDuration   time.Duration
	Runs           int
	TrueF          float64
}

// Config controls a multi-run experiment.
type Config struct {
	// Budget is the label budget per run.
	Budget int
	// Runs is the number of independent repeats (1000 in the paper).
	Runs int
	// Checkpoints are the label counts at which estimates are recorded;
	// defaults to a 50-point linear grid over [1, Budget].
	Checkpoints []int
	// BaseSeed separates experiment randomness; run r uses BaseSeed + r
	// for the method and a derived stream for the oracle.
	BaseSeed uint64
	// Workers bounds parallelism (default GOMAXPROCS).
	Workers int
}

// LinearGrid returns `points` evenly spaced checkpoints over [1, budget].
func LinearGrid(budget, points int) []int {
	if points <= 0 || budget <= 0 {
		return nil
	}
	if points > budget {
		points = budget
	}
	out := make([]int, 0, points)
	for i := 1; i <= points; i++ {
		c := i * budget / points
		if c < 1 {
			c = 1
		}
		if len(out) == 0 || c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}

// Run executes cfg.Runs independent runs of the method built by factory
// against oracles built per run from the pool's ground truth, and aggregates
// the error curves against the pool's true F_alpha.
func Run(f Factory, p *pool.Pool, alpha float64, cfg Config) (*Curves, error) {
	if cfg.Budget <= 0 {
		return nil, fmt.Errorf("experiment: budget %d", cfg.Budget)
	}
	if cfg.Budget > p.N() {
		cfg.Budget = p.N()
	}
	if cfg.Runs <= 0 {
		cfg.Runs = 1
	}
	checkpoints := cfg.Checkpoints
	if len(checkpoints) == 0 {
		checkpoints = LinearGrid(cfg.Budget, 50)
	}
	if !sort.IntsAreSorted(checkpoints) {
		return nil, errors.New("experiment: checkpoints must be sorted")
	}
	trueF := p.TrueFMeasure(alpha)

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Runs {
		workers = cfg.Runs
	}
	results := make([]*RunResult, cfg.Runs)
	errs := make([]error, cfg.Runs)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for run := 0; run < cfg.Runs; run++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(run int) {
			defer wg.Done()
			defer func() { <-sem }()
			seed := cfg.BaseSeed + uint64(run)
			m, err := f.New(seed)
			if err != nil {
				errs[run] = err
				return
			}
			// Oracle stream independent of the method stream.
			o := oracle.FromProbs(p.TruthProb, rng.New(seed^0x9e3779b97f4a7c15))
			res, err := RunOne(m, o, cfg.Budget, checkpoints)
			if err != nil && !errors.Is(err, sampler.ErrStalled) {
				errs[run] = err
				return
			}
			results[run] = res
		}(run)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Deterministic sequential reduction.
	c := &Curves{
		Name:         f.Name,
		Checkpoints:  checkpoints,
		MeanAbsErr:   make([]float64, len(checkpoints)),
		StdDev:       make([]float64, len(checkpoints)),
		AbsErrStdDev: make([]float64, len(checkpoints)),
		DefinedFrac:  make([]float64, len(checkpoints)),
		Runs:         cfg.Runs,
		TrueF:        trueF,
	}
	var totalIters float64
	var totalDur time.Duration
	for ci := range checkpoints {
		var online, onlineErr stats.Online
		var absErr float64
		defined := 0
		for _, res := range results {
			est := res.Estimates[ci]
			if math.IsNaN(est) {
				continue
			}
			defined++
			e := math.Abs(est - trueF)
			online.Add(est)
			onlineErr.Add(e)
			absErr += e
		}
		if defined > 0 {
			c.MeanAbsErr[ci] = absErr / float64(defined)
			c.StdDev[ci] = online.StdDev()
			c.AbsErrStdDev[ci] = onlineErr.StdDev()
		} else {
			c.MeanAbsErr[ci] = math.NaN()
			c.StdDev[ci] = math.NaN()
			c.AbsErrStdDev[ci] = math.NaN()
		}
		c.DefinedFrac[ci] = float64(defined) / float64(cfg.Runs)
	}
	for _, res := range results {
		totalIters += float64(res.Iterations)
		totalDur += res.Duration
	}
	c.MeanIterations = totalIters / float64(cfg.Runs)
	c.MeanDuration = totalDur / time.Duration(cfg.Runs)
	return c, nil
}

// FinalErrors returns the per-run absolute error at the final checkpoint
// along with a 95% confidence half-width — the Figure 5 summary statistic.
func FinalErrors(f Factory, p *pool.Pool, alpha float64, cfg Config) (mean, ci float64, err error) {
	if len(cfg.Checkpoints) == 0 {
		cfg.Checkpoints = []int{cfg.Budget}
	}
	curves, err := Run(f, p, alpha, cfg)
	if err != nil {
		return 0, 0, err
	}
	last := len(curves.Checkpoints) - 1
	// The statistic is the mean of |F̂ − F|, so its CI comes from the spread
	// of |F̂ − F|, not of F̂: runs that straddle the truth spread F̂ widely
	// while their errors agree.
	mean = curves.MeanAbsErr[last]
	n := float64(curves.Runs) * curves.DefinedFrac[last]
	if n > 1 {
		ci = 1.96 * curves.AbsErrStdDev[last] / math.Sqrt(n)
	} else {
		ci = math.NaN()
	}
	return mean, ci, nil
}

// LabelsToReachError returns the smallest checkpoint at which the method's
// mean absolute error drops to at or below target and stays there for the
// remainder of the curve; -1 if never. This implements the paper's headline
// "83% label reduction" comparison.
func LabelsToReachError(c *Curves, target float64) int {
	for ci := range c.Checkpoints {
		if math.IsNaN(c.MeanAbsErr[ci]) || c.MeanAbsErr[ci] > target {
			continue
		}
		ok := true
		for cj := ci; cj < len(c.Checkpoints); cj++ {
			if math.IsNaN(c.MeanAbsErr[cj]) || c.MeanAbsErr[cj] > target {
				ok = false
				break
			}
		}
		if ok {
			return c.Checkpoints[ci]
		}
	}
	return -1
}

// LabelSaving returns the fractional label saving of method a relative to
// method b at the given target error: 1 − labels_a/labels_b. It returns NaN
// when either method never reaches the target.
func LabelSaving(a, b *Curves, target float64) float64 {
	la := LabelsToReachError(a, target)
	lb := LabelsToReachError(b, target)
	if la <= 0 || lb <= 0 {
		return math.NaN()
	}
	return 1 - float64(la)/float64(lb)
}
