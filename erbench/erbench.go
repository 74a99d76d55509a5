// Package erbench exposes the paper's experimental testbed as a public API:
// synthetic counterparts of the six benchmark datasets (Table 1), the ER
// pipeline that builds classifier-scored evaluation pools (Table 2), and the
// multi-run error-curve harness behind Figures 2–5 and Table 3.
//
// The real datasets are replaced by generators with matched pool sizes,
// match counts and class-imbalance ratios; everything downstream —
// stratification, sampling, estimation — is byte-for-byte the published
// algorithm.
package erbench

import (
	"fmt"
	"time"

	"oasis"
	"oasis/internal/core"
	"oasis/internal/dataset"
	"oasis/internal/diag"
	"oasis/internal/experiment"
	"oasis/internal/oracle"
	"oasis/internal/pipeline"
	"oasis/internal/pool"
	"oasis/internal/rng"
	"oasis/internal/sampler"
	"oasis/internal/strata"
)

// DatasetNames lists the six profiles in the paper's Table 1 order
// (decreasing class imbalance).
func DatasetNames() []string {
	profiles := dataset.Profiles(0)
	names := make([]string, len(profiles))
	for i, p := range profiles {
		names[i] = p.Name
	}
	return names
}

// DatasetInfo summarises one dataset profile against the paper's Table 1.
type DatasetInfo struct {
	Name string
	// Generated dataset statistics.
	Pairs          int
	Matches        int
	ImbalanceRatio float64
	// Paper-reported values for the real dataset.
	PaperPairs     int
	PaperMatches   int
	PaperImbalance float64
}

// Inventory generates every dataset profile at the given seed and reports
// measured-vs-paper statistics (the Table 1 reproduction).
func Inventory(seed uint64) ([]DatasetInfo, error) {
	var out []DatasetInfo
	for _, prof := range dataset.Profiles(seed) {
		gen, err := prof.Generate()
		if err != nil {
			return nil, err
		}
		info := DatasetInfo{
			Name:           prof.Name,
			PaperPairs:     prof.Paper.Pairs,
			PaperMatches:   prof.Paper.Matches,
			PaperImbalance: prof.Paper.ImbalanceRatio,
		}
		switch ds := gen.(type) {
		case *dataset.TwoSourceDataset:
			info.Pairs = ds.NumPairs()
			info.Matches = ds.NumMatches()
			info.ImbalanceRatio = ds.ImbalanceRatio()
		case *dataset.DedupDataset:
			info.Pairs = ds.NumPairs()
			info.Matches = ds.NumMatches()
			info.ImbalanceRatio = ds.ImbalanceRatio()
		case *dataset.PointsDataset:
			info.Pairs = len(ds.X)
			info.Matches = ds.NumPositives()
			if info.Matches > 0 {
				info.ImbalanceRatio = float64(info.Pairs-info.Matches) / float64(info.Matches)
			}
		}
		out = append(out, info)
	}
	return out, nil
}

// Classifier names the classifier families of §6.3.4.
type Classifier = pipeline.ModelKind

// Classifier kinds.
const (
	LinearSVM = pipeline.LinearSVM
	LogReg    = pipeline.LogReg
	NeuralNet = pipeline.NeuralNet
	Boosted   = pipeline.Boosted
	KernelSVM = pipeline.KernelSVM
)

// PoolConfig controls testbed pool construction.
type PoolConfig struct {
	// Scale multiplies the paper's pool size and match count (Table 2);
	// 1.0 reproduces the paper's shapes, smaller values run faster.
	// Default 1.0.
	Scale float64
	// Classifier selects the scoring model (default LinearSVM).
	Classifier Classifier
	// Calibrate applies Platt scaling so scores are probabilities (§6.3.2).
	Calibrate bool
	// TrainPairs is the labelled training-set size (default 2000).
	TrainPairs int
	// Seed drives generation, training and pool sampling.
	Seed uint64
}

// BuiltPool couples the public pool with ground-truth measures for
// experimentation.
type BuiltPool struct {
	Pool *oasis.Pool
	// TruthProb is p(1|z) per pair — ground truth for simulated oracles.
	TruthProb []float64
	// Precision, Recall, F50 are the pool's true operating point (Table 2).
	Precision, Recall, F50 float64
	// Name echoes the dataset profile name.
	Name string

	inner *pool.Pool
}

// Oracle returns a ground-truth oracle function for the pool, for use with
// the samplers' Run methods. For deterministic truth (the experiments here)
// the seed is irrelevant.
func (b *BuiltPool) Oracle(seed uint64) oasis.OracleFunc {
	o := oracle.FromProbs(b.TruthProb, rng.New(seed))
	return o.Label
}

// TrueF returns the pool's population F_α.
func (b *BuiltPool) TrueF(alpha float64) float64 { return b.inner.TrueFMeasure(alpha) }

// BuildPool constructs the Table 2 evaluation pool for the named dataset
// profile.
func BuildPool(name string, cfg PoolConfig) (*BuiltPool, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	prof, err := dataset.ProfileByName(name, cfg.Seed)
	if err != nil {
		return nil, err
	}
	res, err := pipeline.BuildProfilePool(prof, cfg.Scale, pipeline.Config{
		Seed:       cfg.Seed + 1,
		TrainPairs: cfg.TrainPairs,
		Model:      cfg.Classifier,
		Calibrate:  cfg.Calibrate,
	})
	if err != nil {
		return nil, err
	}
	prec, rec, f50 := pipeline.OperatingPoint(res.Pool)
	return &BuiltPool{
		Pool:      oasis.WrapPool(res.Pool),
		TruthProb: res.Pool.TruthProb,
		Precision: prec,
		Recall:    rec,
		F50:       f50,
		Name:      name,
		inner:     res.Pool,
	}, nil
}

// MethodKind selects an evaluation method for the harness.
type MethodKind int

// Method kinds compared in the paper's §6.
const (
	Passive MethodKind = iota
	Stratified
	ImportanceSampling
	// ImportanceSamplingNaive is IS with O(N)-per-draw sampling, the
	// implementation whose runtime Table 3 reports.
	ImportanceSamplingNaive
	OASIS
)

// String returns the method's display name.
func (m MethodKind) String() string {
	switch m {
	case Passive:
		return "Passive"
	case Stratified:
		return "Stratified"
	case ImportanceSampling:
		return "IS"
	case ImportanceSamplingNaive:
		return "IS (naive)"
	case OASIS:
		return "OASIS"
	default:
		return "unknown"
	}
}

// HarnessConfig controls a multi-run error-curve experiment.
type HarnessConfig struct {
	// Alpha is the F-measure weight (default 0.5, the paper's setting).
	Alpha float64
	// Budget is the label budget per run.
	Budget int
	// Runs is the number of repeats (paper: 1000).
	Runs int
	// Strata is K for stratified methods (default 30).
	Strata int
	// Epsilon is the ε-greedy rate (default 1e-3).
	Epsilon float64
	// PriorStrength is η (default 2K).
	PriorStrength float64
	// NoPriorDecay disables the Remark 4 prior decay (ablation; decay is
	// on by default, matching the reference implementation).
	NoPriorDecay bool
	// PosteriorEstimate reports the stratified posterior plug-in estimate
	// instead of the Eqn. (3) importance-weighted ratio (ablation).
	PosteriorEstimate bool
	// EqualSizeStrata switches OASIS stratification from CSF to equal-size
	// (ablation).
	EqualSizeStrata bool
	// Checkpoints sets the label counts at which errors are recorded
	// (default: 50-point linear grid).
	Checkpoints []int
	// Seed is the base seed; run r uses Seed + r.
	Seed uint64
	// Workers bounds parallelism (default GOMAXPROCS).
	Workers int
}

func (c HarnessConfig) withDefaults() HarnessConfig {
	if c.Alpha == 0 {
		c.Alpha = 0.5
	}
	if c.Strata <= 0 {
		c.Strata = 30
	}
	return c
}

// Curves re-exports the harness aggregation type.
type Curves = experiment.Curves

// factory builds the experiment factory for a method over a pool.
func factory(kind MethodKind, p *pool.Pool, cfg HarnessConfig) (experiment.Factory, error) {
	name := kind.String()
	switch kind {
	case Passive:
		return experiment.Factory{Name: name, New: func(seed uint64) (sampler.Method, error) {
			return sampler.NewPassive(p, cfg.Alpha, rng.New(seed)), nil
		}}, nil
	case Stratified:
		s, err := strata.CSF(p, cfg.Strata, 0)
		if err != nil {
			return experiment.Factory{}, err
		}
		return experiment.Factory{Name: name, New: func(seed uint64) (sampler.Method, error) {
			return sampler.NewStratified(p, s, cfg.Alpha, rng.New(seed))
		}}, nil
	case ImportanceSampling, ImportanceSamplingNaive:
		naive := kind == ImportanceSamplingNaive
		return experiment.Factory{Name: name, New: func(seed uint64) (sampler.Method, error) {
			return sampler.NewIS(p, sampler.ISConfig{Alpha: cfg.Alpha, Epsilon: cfg.Epsilon, Naive: naive}, rng.New(seed))
		}}, nil
	case OASIS:
		s, err := oasisStrata(p, cfg)
		if err != nil {
			return experiment.Factory{}, err
		}
		name = fmt.Sprintf("OASIS %d", cfg.Strata)
		return experiment.Factory{Name: name, New: func(seed uint64) (sampler.Method, error) {
			return core.New(p, s, cfg.coreConfig(), rng.New(seed))
		}}, nil
	default:
		return experiment.Factory{}, fmt.Errorf("erbench: unknown method %d", kind)
	}
}

// oasisStrata stratifies p as cfg asks of OASIS: CSF, or equal-size strata
// for the ablation. Every run of an experiment shares the one layout.
func oasisStrata(p *pool.Pool, cfg HarnessConfig) (*strata.Strata, error) {
	if cfg.EqualSizeStrata {
		return strata.EqualSize(p, cfg.Strata)
	}
	return strata.CSF(p, cfg.Strata, 0)
}

// coreConfig is the OASIS configuration cfg describes.
func (c HarnessConfig) coreConfig() core.Config {
	return core.Config{
		Alpha:             c.Alpha,
		Epsilon:           c.Epsilon,
		PriorStrength:     c.PriorStrength,
		DisablePriorDecay: c.NoPriorDecay,
		PosteriorEstimate: c.PosteriorEstimate,
	}
}

// RunCurves runs the multi-repeat experiment of Figure 2/3 for one method on
// one pool: expected absolute error and standard deviation of F̂ as a
// function of labels consumed.
func RunCurves(b *BuiltPool, kind MethodKind, cfg HarnessConfig) (*Curves, error) {
	cfg = cfg.withDefaults()
	f, err := factory(kind, b.inner, cfg)
	if err != nil {
		return nil, err
	}
	return experiment.Run(f, b.inner, cfg.Alpha, experiment.Config{
		Budget:      cfg.Budget,
		Runs:        cfg.Runs,
		Checkpoints: cfg.Checkpoints,
		BaseSeed:    cfg.Seed,
		Workers:     cfg.Workers,
	})
}

// FinalError runs the experiment and reports the mean absolute error at the
// final budget with a ~95% confidence half-width (Figure 5's statistic).
func FinalError(b *BuiltPool, kind MethodKind, cfg HarnessConfig) (mean, ci float64, err error) {
	cfg = cfg.withDefaults()
	f, err := factory(kind, b.inner, cfg)
	if err != nil {
		return 0, 0, err
	}
	return experiment.FinalErrors(f, b.inner, cfg.Alpha, experiment.Config{
		Budget:      cfg.Budget,
		Runs:        cfg.Runs,
		Checkpoints: []int{cfg.Budget},
		BaseSeed:    cfg.Seed,
		Workers:     cfg.Workers,
	})
}

// Timing reports per-run and per-iteration CPU cost of a method (Table 3).
type Timing struct {
	Method       string
	PerRun       time.Duration
	PerIteration time.Duration
	Iterations   float64
}

// RunTiming measures the average sampling cost of a method over the pool.
func RunTiming(b *BuiltPool, kind MethodKind, cfg HarnessConfig) (*Timing, error) {
	cfg = cfg.withDefaults()
	f, err := factory(kind, b.inner, cfg)
	if err != nil {
		return nil, err
	}
	curves, err := experiment.Run(f, b.inner, cfg.Alpha, experiment.Config{
		Budget:      cfg.Budget,
		Runs:        cfg.Runs,
		Checkpoints: []int{cfg.Budget},
		BaseSeed:    cfg.Seed,
		Workers:     1, // timing runs must not contend
	})
	if err != nil {
		return nil, err
	}
	t := &Timing{
		Method:     f.Name,
		PerRun:     curves.MeanDuration,
		Iterations: curves.MeanIterations,
	}
	if curves.MeanIterations > 0 {
		t.PerIteration = time.Duration(float64(curves.MeanDuration) / curves.MeanIterations)
	}
	return t, nil
}

// Convergence re-exports the Figure 4 diagnostics type.
type Convergence = experiment.Convergence

// RunConvergence runs the single-trajectory diagnostics of Figure 4 on a
// pool: F, π and v* errors plus KL(v*‖v̂) as labels accumulate.
func RunConvergence(b *BuiltPool, cfg HarnessConfig, every int) (*Convergence, error) {
	cfg = cfg.withDefaults()
	s, err := oasisStrata(b.inner, cfg)
	if err != nil {
		return nil, err
	}
	o, err := core.New(b.inner, s, cfg.coreConfig(), rng.New(cfg.Seed))
	if err != nil {
		return nil, err
	}
	orc := oracle.FromProbs(b.TruthProb, rng.New(cfg.Seed^0xabcdef))
	return experiment.RunConvergence(o, b.inner, s, cfg.Alpha, cfg.Budget, every, orc)
}

// StratumSummary describes one CSF stratum (Figure 1's bars).
type StratumSummary struct {
	Index     int
	Size      int
	MeanScore float64
	MeanPred  float64
}

// StrataSummary stratifies the pool with CSF and reports per-stratum sizes
// and mean scores (the Figure 1 reproduction).
func StrataSummary(b *BuiltPool, k int) ([]StratumSummary, error) {
	s, err := strata.CSF(b.inner, k, 0)
	if err != nil {
		return nil, err
	}
	out := make([]StratumSummary, s.K())
	for j := 0; j < s.K(); j++ {
		out[j] = StratumSummary{
			Index:     j,
			Size:      s.Size(j),
			MeanScore: s.MeanScore[j],
			MeanPred:  s.MeanPred[j],
		}
	}
	return out, nil
}

// LabelsToReachError and LabelSaving re-export the headline-savings helpers.
var (
	LabelsToReachError = experiment.LabelsToReachError
	LabelSaving        = experiment.LabelSaving
)

// DiagSnapshot is a convergence-diagnostics snapshot of one OASIS
// trajectory on a paper dataset: the downsampled estimator time-series
// (internal/diag's fixed-memory ring), the final alarm state under the
// default thresholds, and per-stratum weight diagnostics. It is the
// offline counterpart of the service's GET /v1/sessions/{id}/diagnostics.
type DiagSnapshot struct {
	// Dataset echoes the pool's profile name.
	Dataset string
	// Series is the retained (downsampled) estimator trajectory; Stride
	// and Seen describe how much it was thinned.
	Series []diag.Point
	Stride uint64
	Seen   uint64
	// State is the final sampler-health alarm state ("ok", "degraded",
	// "degenerate") under diag.DefaultThresholds.
	State string
	// Strata is the per-stratum health at the end of the run.
	Strata []diag.StratumHealth
	// Final is the estimator health at budget exhaustion.
	Final oasis.Health
}

// RunDiagnostics runs one OASIS trajectory to cfg.Budget on the pool,
// folding an estimator-health point into a capacity-point downsampling ring
// every `every` labels (0 records after every label batch of 1), and
// returns the snapshot. capacity <= 0 selects the ring default. Unlike
// RunConvergence it needs no ground truth beyond the oracle — it measures
// exactly what a live session's diagnostics endpoint would show, so paper
// datasets can be profiled for threshold tuning.
func RunDiagnostics(b *BuiltPool, cfg HarnessConfig, every, capacity int) (*DiagSnapshot, error) {
	cfg = cfg.withDefaults()
	if every <= 0 {
		every = 1
	}
	s, err := oasis.NewSampler(b.Pool, oasis.Options{
		Alpha:         cfg.Alpha,
		Strata:        cfg.Strata,
		Epsilon:       cfg.Epsilon,
		PriorStrength: cfg.PriorStrength,
		Seed:          cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	orc := b.Oracle(cfg.Seed ^ 0xabcdef)
	tracker := diag.NewTracker(capacity, diag.DefaultThresholds)
	for consumed := 0; consumed < cfg.Budget; {
		chunk := every
		if rest := cfg.Budget - consumed; chunk > rest {
			chunk = rest
		}
		if _, err := s.Run(orc, chunk); err != nil {
			return nil, err
		}
		consumed += chunk
		h := s.Health()
		tracker.Record(diag.Point{
			Labels:   consumed,
			Estimate: diag.Float(h.Estimate),
			Variance: diag.Float(h.AsymptoticVariance),
			ESSRatio: diag.Float(h.ESSRatio),
			Terms:    h.Terms,
		})
	}
	series := tracker.Series()
	return &DiagSnapshot{
		Dataset: b.Name,
		Series:  append([]diag.Point(nil), series.Points()...),
		Stride:  series.Stride(),
		Seen:    series.Seen(),
		State:   tracker.State().String(),
		Strata:  s.StratumDiagnostics(),
		Final:   s.Health(),
	}, nil
}
