// Package paperexp regenerates every table and figure of the paper's
// evaluation section (§6) against the synthetic testbed. Each function
// writes an aligned text table to the supplied writer; the root-level
// benchmarks and cmd/oasis-bench are thin wrappers around these.
//
// Scale semantics: pool sizes and match counts are the paper's Table 2
// values multiplied by Scale, and label budgets are the paper's figure axes
// multiplied by the same factor. Runs defaults far below the paper's 1000
// repeats to stay laptop-friendly; increase it for smoother curves.
package paperexp

import (
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"sync"

	"oasis/erbench"
)

// Config controls the regeneration scale.
type Config struct {
	// Scale multiplies pool sizes, match counts and label budgets
	// (1.0 = paper scale). Default 0.25.
	Scale float64
	// Runs is the number of repeats per error curve (paper: 1000).
	// Default 20.
	Runs int
	// Seed is the base seed for datasets and experiments.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.25
	}
	if c.Runs <= 0 {
		c.Runs = 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// FromEnv reads OASIS_BENCH_SCALE, OASIS_BENCH_RUNS and OASIS_BENCH_SEED
// into a Config, leaving defaults where unset or invalid.
func FromEnv() Config {
	var c Config
	if v, err := strconv.ParseFloat(os.Getenv("OASIS_BENCH_SCALE"), 64); err == nil {
		c.Scale = v
	}
	if v, err := strconv.Atoi(os.Getenv("OASIS_BENCH_RUNS")); err == nil {
		c.Runs = v
	}
	if v, err := strconv.ParseUint(os.Getenv("OASIS_BENCH_SEED"), 10, 64); err == nil {
		c.Seed = v
	}
	return c.withDefaults()
}

// paperBudget is the per-dataset label-budget axis of Figure 2.
var paperBudget = map[string]int{
	"Amazon-GoogleProducts": 40000,
	"restaurant":            20000,
	"DBLP-ACM":              10000,
	"Abt-Buy":               20000,
	"cora":                  20000,
	"tweets100k":            5000,
}

// oasisKs is the set of OASIS stratum counts per dataset in Figure 2.
func oasisKs(name string) []int {
	if name == "tweets100k" {
		return []int{10, 20, 40}
	}
	return []int{30, 60, 120}
}

// budgetFor scales the paper budget, floored for usefulness.
func budgetFor(name string, scale float64) int {
	b := int(float64(paperBudget[name]) * scale)
	if b < 500 {
		b = 500
	}
	return b
}

// poolCache memoises built pools across tables/figures within a process.
var (
	poolMu    sync.Mutex
	poolCache = map[string]*erbench.BuiltPool{}
)

// Pool returns the (cached) evaluation pool for a dataset.
func Pool(name string, cfg Config, classifier erbench.Classifier, calibrate bool) (*erbench.BuiltPool, error) {
	cfg = cfg.withDefaults()
	key := fmt.Sprintf("%s|%v|%v|%v|%v", name, cfg.Scale, cfg.Seed, classifier, calibrate)
	poolMu.Lock()
	defer poolMu.Unlock()
	if b, ok := poolCache[key]; ok {
		return b, nil
	}
	b, err := erbench.BuildPool(name, erbench.PoolConfig{
		Scale:      cfg.Scale,
		Classifier: classifier,
		Calibrate:  calibrate,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	poolCache[key] = b
	return b, nil
}

// fmtF formats a float or "-" for NaN.
func fmtF(v float64, prec int) string {
	if math.IsNaN(v) {
		return "-"
	}
	return strconv.FormatFloat(v, 'f', prec, 64)
}

// Table1 regenerates Table 1: the dataset inventory with sizes, imbalance
// ratios and match counts, paper values alongside.
func Table1(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	infos, err := erbench.Inventory(cfg.Seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table 1: datasets (measured vs paper)\n")
	fmt.Fprintf(w, "%-22s %12s %12s %10s %10s %9s %9s\n",
		"dataset", "pairs", "pairs(ppr)", "imb", "imb(ppr)", "matches", "m(ppr)")
	for _, info := range infos {
		fmt.Fprintf(w, "%-22s %12d %12d %10.1f %10.1f %9d %9d\n",
			info.Name, info.Pairs, info.PaperPairs,
			info.ImbalanceRatio, info.PaperImbalance,
			info.Matches, info.PaperMatches)
	}
	return nil
}

// Table2 regenerates Table 2: the evaluation pools and the trained linear
// SVM's true operating point on each.
func Table2(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "Table 2: pools and L-SVM operating points at scale %.2f (paper values in parens)\n", cfg.Scale)
	fmt.Fprintf(w, "%-22s %9s %9s %18s %18s %18s\n",
		"dataset", "size", "matches", "precision", "recall", "F1/2")
	for _, name := range erbench.DatasetNames() {
		b, err := Pool(name, cfg, erbench.LinearSVM, false)
		if err != nil {
			return err
		}
		prof := paperOperatingPoint(name)
		fmt.Fprintf(w, "%-22s %9d %9.0f %9.3f (%.3f)  %9.3f (%.3f)  %9.3f (%.3f)\n",
			name, b.Pool.N(), b.Pool.Internal().ExpectedMatches(),
			b.Precision, prof[0], b.Recall, prof[1], b.F50, prof[2])
	}
	return nil
}

// paperOperatingPoint returns the paper's Table 2 precision/recall/F values.
func paperOperatingPoint(name string) [3]float64 {
	switch name {
	case "Amazon-GoogleProducts":
		return [3]float64{0.597, 0.185, 0.282}
	case "restaurant":
		return [3]float64{0.909, 0.888, 0.899}
	case "DBLP-ACM":
		return [3]float64{1.0, 0.9, 0.947}
	case "Abt-Buy":
		return [3]float64{0.916, 0.44, 0.595}
	case "cora":
		return [3]float64{0.841, 0.837, 0.839}
	case "tweets100k":
		return [3]float64{0.762, 0.778, 0.770}
	default:
		return [3]float64{}
	}
}

// Table3 regenerates Table 3: average CPU time per run and per iteration on
// the cora pool for Passive, IS (naive O(N)-per-draw as in the paper's
// implementation), OASIS with K = 30/60/120, and Stratified.
func Table3(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	b, err := Pool("cora", cfg, erbench.LinearSVM, false)
	if err != nil {
		return err
	}
	budget := budgetFor("cora", cfg.Scale)
	runs := cfg.Runs
	if runs > 5 {
		runs = 5 // timing runs are serial; a handful suffices
	}
	fmt.Fprintf(w, "Table 3: CPU times, cora pool (N=%d, budget=%d, %d runs; an OASIS iteration is one label, free re-draws included)\n", b.Pool.N(), budget, runs)
	fmt.Fprintf(w, "%-14s %16s %18s\n", "method", "per run", "per iteration")
	type row struct {
		kind erbench.MethodKind
		k    int
	}
	rows := []row{
		{erbench.Passive, 0},
		{erbench.ImportanceSamplingNaive, 0},
		{erbench.OASIS, 30},
		{erbench.OASIS, 60},
		{erbench.OASIS, 120},
		{erbench.Stratified, 30},
	}
	for _, r := range rows {
		hc := erbench.HarnessConfig{Budget: budget, Runs: runs, Seed: cfg.Seed + 17, Strata: r.k}
		tm, err := erbench.RunTiming(b, r.kind, hc)
		if err != nil {
			return err
		}
		name := tm.Method
		if r.kind == erbench.OASIS {
			name = fmt.Sprintf("OASIS %d", r.k)
		}
		fmt.Fprintf(w, "%-14s %16v %18v\n", name, tm.PerRun, tm.PerIteration)
	}
	return nil
}

// Figure1 regenerates Figure 1: sizes and mean calibrated scores of the CSF
// strata on the Abt-Buy pool.
func Figure1(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	b, err := Pool("Abt-Buy", cfg, erbench.LinearSVM, true)
	if err != nil {
		return err
	}
	rows, err := erbench.StrataSummary(b, 30)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 1: CSF strata of the Abt-Buy pool (calibrated scores, K=30 target, %d realised)\n", len(rows))
	fmt.Fprintf(w, "%-8s %10s %12s %10s\n", "stratum", "size", "mean score", "mean pred")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d %10d %12.4f %10.3f\n", r.Index, r.Size, r.MeanScore, r.MeanPred)
	}
	return nil
}

// Figure2 regenerates Figure 2: expected absolute error and standard
// deviation of F̂_1/2 versus label budget for Passive, Stratified, IS and
// OASIS (three K values) on all six pools. Rows are printed at a handful of
// budget checkpoints per method.
func Figure2(w io.Writer, cfg Config, datasets ...string) error {
	cfg = cfg.withDefaults()
	if len(datasets) == 0 {
		datasets = erbench.DatasetNames()
	}
	for _, name := range datasets {
		b, err := Pool(name, cfg, erbench.LinearSVM, false)
		if err != nil {
			return err
		}
		budget := budgetFor(name, cfg.Scale)
		fmt.Fprintf(w, "Figure 2 [%s]: trueF=%.4f budget=%d runs=%d\n", name, b.TrueF(0.5), budget, cfg.Runs)
		fmt.Fprintf(w, "%-12s %10s %12s %12s %10s\n", "method", "labels", "abs err", "std dev", "defined")
		emit := func(kind erbench.MethodKind, k int) error {
			hc := erbench.HarnessConfig{
				Budget: budget, Runs: cfg.Runs, Seed: cfg.Seed + 29, Strata: k,
			}
			c, err := erbench.RunCurves(b, kind, hc)
			if err != nil {
				return err
			}
			for _, ci := range []int{len(c.Checkpoints) / 5, 2 * len(c.Checkpoints) / 5, 3 * len(c.Checkpoints) / 5, len(c.Checkpoints) - 1} {
				fmt.Fprintf(w, "%-12s %10d %12s %12s %10.2f\n", c.Name,
					c.Checkpoints[ci], fmtF(c.MeanAbsErr[ci], 5), fmtF(c.StdDev[ci], 5), c.DefinedFrac[ci])
			}
			return nil
		}
		if err := emit(erbench.Passive, 0); err != nil {
			return err
		}
		if err := emit(erbench.Stratified, 30); err != nil {
			return err
		}
		if err := emit(erbench.ImportanceSampling, 0); err != nil {
			return err
		}
		for _, k := range oasisKs(name) {
			if err := emit(erbench.OASIS, k); err != nil {
				return err
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Figure3 regenerates Figure 3: calibrated vs uncalibrated scores for IS and
// OASIS (K=60) on Abt-Buy and DBLP-ACM.
func Figure3(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	for _, name := range []string{"Abt-Buy", "DBLP-ACM"} {
		budget := budgetFor(name, cfg.Scale) / 2
		fmt.Fprintf(w, "Figure 3 [%s]: budget=%d runs=%d\n", name, budget, cfg.Runs)
		fmt.Fprintf(w, "%-16s %10s %12s %12s\n", "variant", "labels", "abs err", "std dev")
		for _, cal := range []bool{false, true} {
			b, err := Pool(name, cfg, erbench.LinearSVM, cal)
			if err != nil {
				return err
			}
			for _, kind := range []erbench.MethodKind{erbench.ImportanceSampling, erbench.OASIS} {
				hc := erbench.HarnessConfig{Budget: budget, Runs: cfg.Runs, Seed: cfg.Seed + 31, Strata: 60}
				c, err := erbench.RunCurves(b, kind, hc)
				if err != nil {
					return err
				}
				last := len(c.Checkpoints) - 1
				label := c.Name + map[bool]string{false: " uncal.", true: " cal."}[cal]
				fmt.Fprintf(w, "%-16s %10d %12s %12s\n", label,
					c.Checkpoints[last], fmtF(c.MeanAbsErr[last], 5), fmtF(c.StdDev[last], 5))
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Figure4 regenerates Figure 4: single-run convergence diagnostics of OASIS
// on the calibrated Abt-Buy pool with K=30 — absolute error of F̂, of π̂, of
// v̂ against the population-optimal v*, and KL(v*‖v̂).
func Figure4(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	b, err := Pool("Abt-Buy", cfg, erbench.LinearSVM, true)
	if err != nil {
		return err
	}
	budget := budgetFor("Abt-Buy", cfg.Scale) / 2
	every := budget / 25
	if every < 1 {
		every = 1
	}
	conv, err := erbench.RunConvergence(b, erbench.HarnessConfig{
		Budget: budget, Strata: 30, Seed: cfg.Seed + 37,
	}, every)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 4: OASIS convergence, Abt-Buy calibrated, K=30, budget=%d\n", budget)
	fmt.Fprintf(w, "%10s %12s %12s %12s %12s\n", "labels", "|F err|", "|pi err|", "|v* err|", "KL(v*||v)")
	for i := range conv.Labels {
		fmt.Fprintf(w, "%10d %12.5f %12.5f %12.5f %12.5f\n",
			conv.Labels[i], conv.FError[i], conv.PiError[i], conv.VError[i], conv.KL[i])
	}
	return nil
}

// Figure5 regenerates Figure 5: expected absolute error of F̂_1/2 after a
// fixed budget for five classifier families on Abt-Buy, with ~95% CIs.
func Figure5(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	budget := int(5000 * cfg.Scale)
	if budget < 300 {
		budget = 300
	}
	fmt.Fprintf(w, "Figure 5: abs err after %d labels, Abt-Buy, %d runs (±95%% CI)\n", budget, cfg.Runs)
	fmt.Fprintf(w, "%-8s %22s %22s %22s %22s\n", "clf", "Passive", "Stratified", "IS", "OASIS")
	classifiers := []erbench.Classifier{
		erbench.NeuralNet, erbench.Boosted, erbench.LogReg, erbench.KernelSVM, erbench.LinearSVM,
	}
	for _, clf := range classifiers {
		b, err := Pool("Abt-Buy", cfg, clf, false)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8s", clf.String())
		for _, kind := range []erbench.MethodKind{erbench.Passive, erbench.Stratified, erbench.ImportanceSampling, erbench.OASIS} {
			mean, ci, err := erbench.FinalError(b, kind, erbench.HarnessConfig{
				Budget: budget, Runs: cfg.Runs, Seed: cfg.Seed + 41, Strata: 30,
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %11s ±%8s", fmtF(mean, 5), fmtF(ci, 5))
		}
		fmt.Fprintln(w)
	}
	return nil
}
