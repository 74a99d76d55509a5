// Package pipeline implements the ER pipeline of the paper's §6.1.2:
// record pre-processing, pairwise similarity features (trigram Jaccard for
// short text, tf-idf cosine for long text, normalised absolute difference
// for numerics), record-pair classification, and construction of the
// evaluation pools of Table 2 (random pair pools with a fixed number of
// ground-truth matches).
package pipeline

import (
	"errors"
	"fmt"
	"sort"

	"oasis/internal/classifier"
	"oasis/internal/dataset"
	"oasis/internal/metric"
	"oasis/internal/pool"
	"oasis/internal/rng"
	"oasis/internal/stats"
	"oasis/internal/textutil"
)

// Rep is the pre-processed representation of one record: per-field trigram
// sets, tf-idf vectors and numbers, aligned with the schema.
type Rep struct {
	tri  [][]string
	vec  []textutil.SparseVector
	num  []float64
	miss []bool
}

// Featurizer converts records of a fixed schema into feature vectors for
// record pairs. Numeric fields are compared on the scale of their corpus
// standard deviation (metric.ScaledNumericSimilarity), so that e.g. years
// discriminate even though their relative differences are tiny.
type Featurizer struct {
	schema dataset.Schema
	corpus *textutil.Corpus
	scales []float64
}

// NewFeaturizer builds a featurizer whose tf-idf corpus is fit on the long-
// text fields of all provided record sets.
func NewFeaturizer(schema dataset.Schema, recordSets ...[]dataset.Record) *Featurizer {
	corpus := textutil.NewCorpus(nil)
	numStats := make([]stats.Online, len(schema))
	for _, recs := range recordSets {
		for _, rec := range recs {
			for fi, spec := range schema {
				if rec.Values[fi].Missing {
					continue
				}
				switch spec.Kind {
				case dataset.LongText:
					corpus.AddDoc(textutil.Normalize(rec.Values[fi].Text))
				case dataset.Numeric:
					numStats[fi].Add(rec.Values[fi].Num)
				}
			}
		}
	}
	scales := make([]float64, len(schema))
	for fi := range schema {
		if numStats[fi].N() > 1 {
			scales[fi] = numStats[fi].StdDev()
		}
	}
	return &Featurizer{schema: schema, corpus: corpus, scales: scales}
}

// NumFeatures returns the pair feature dimension (one per schema field).
func (f *Featurizer) NumFeatures() int { return len(f.schema) }

// Rep pre-processes one record.
func (f *Featurizer) Rep(rec dataset.Record) Rep {
	n := len(f.schema)
	rep := Rep{
		tri:  make([][]string, n),
		vec:  make([]textutil.SparseVector, n),
		num:  make([]float64, n),
		miss: make([]bool, n),
	}
	for fi, spec := range f.schema {
		v := rec.Values[fi]
		if v.Missing {
			rep.miss[fi] = true
			continue
		}
		switch spec.Kind {
		case dataset.ShortText:
			rep.tri[fi] = textutil.Trigrams(textutil.Normalize(v.Text))
		case dataset.LongText:
			rep.vec[fi] = f.corpus.Vector(textutil.Normalize(v.Text))
		case dataset.Numeric:
			rep.num[fi] = v.Num
		}
	}
	return rep
}

// Reps pre-processes a record slice.
func (f *Featurizer) Reps(recs []dataset.Record) []Rep {
	out := make([]Rep, len(recs))
	for i, rec := range recs {
		out[i] = f.Rep(rec)
	}
	return out
}

// PairFeatures computes the similarity feature vector of a record pair. A
// missing value on either side yields feature 0 for that field (imputation
// to "no evidence of similarity").
func (f *Featurizer) PairFeatures(a, b *Rep, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(f.schema))
	}
	for fi, spec := range f.schema {
		if a.miss[fi] || b.miss[fi] {
			dst[fi] = 0
			continue
		}
		switch spec.Kind {
		case dataset.ShortText:
			dst[fi] = metric.Jaccard(a.tri[fi], b.tri[fi])
		case dataset.LongText:
			dst[fi] = metric.CosineSparse(a.vec[fi], b.vec[fi])
		case dataset.Numeric:
			dst[fi] = metric.ScaledNumericSimilarity(a.num[fi], b.num[fi], f.scales[fi])
		}
	}
	return dst
}

// ModelKind selects the record-pair classifier family (§6.3.4).
type ModelKind int

const (
	// LinearSVM is the default pipeline classifier (L-SVM).
	LinearSVM ModelKind = iota
	// LogReg is logistic regression (LR).
	LogReg
	// NeuralNet is the one-hidden-layer MLP (NN).
	NeuralNet
	// Boosted is AdaBoost over stumps (AB).
	Boosted
	// KernelSVM is the RBF-kernel SVM via random Fourier features (R-SVM).
	KernelSVM
)

// String returns the paper's abbreviation for the model kind.
func (k ModelKind) String() string {
	switch k {
	case LinearSVM:
		return "L-SVM"
	case LogReg:
		return "LR"
	case NeuralNet:
		return "NN"
	case Boosted:
		return "AB"
	case KernelSVM:
		return "R-SVM"
	default:
		return "unknown"
	}
}

// Config controls pool construction.
type Config struct {
	// Seed drives pair sampling and classifier training.
	Seed uint64
	// PoolSize is the number of record pairs in the evaluation pool.
	PoolSize int
	// PoolMatches is the exact number of ground-truth matching pairs to
	// include (Table 2 column "No. matches").
	PoolMatches int
	// TrainPairs is the number of labelled pairs used to train the
	// classifier (a heuristically balanced set, as §2.1.1 allows:
	// "data used for training need not be representative"). Default 2000.
	TrainPairs int
	// TrainMatchFrac is the fraction of matches in the training set
	// (default 0.35).
	TrainMatchFrac float64
	// Model selects the classifier family. Default LinearSVM.
	Model ModelKind
	// Calibrate fits Platt scaling on a held-out third of the training
	// pairs, producing probabilistic scores (§6.3.2's "calibrated" mode).
	Calibrate bool
}

func (c *Config) defaults() {
	if c.TrainPairs <= 0 {
		c.TrainPairs = 2000
	}
	if c.TrainMatchFrac <= 0 || c.TrainMatchFrac >= 1 {
		c.TrainMatchFrac = 0.35
	}
}

// Result couples the constructed evaluation pool with the trained model and
// the featurizer (retained for scoring further pairs).
type Result struct {
	Pool       *pool.Pool
	Model      classifier.Model
	Featurizer *Featurizer
}

// pairRef identifies a candidate pair in either dataset shape.
type pairRef struct{ i, j int }

// trainModel fits the configured classifier on standardised features.
func trainModel(X [][]float64, y []bool, cfg Config, r *rng.RNG) (classifier.Model, error) {
	std, err := classifier.FitStandardizer(X)
	if err != nil {
		return nil, err
	}
	Z := std.ApplyAll(X)
	var base classifier.Model
	switch cfg.Model {
	case LogReg:
		base, err = classifier.TrainLogisticRegression(Z, y, classifier.LogisticRegressionConfig{}, r)
	case NeuralNet:
		base, err = classifier.TrainMLP(Z, y, classifier.MLPConfig{Hidden: 12, Epochs: 40}, r)
	case Boosted:
		base, err = classifier.TrainAdaBoost(Z, y, classifier.AdaBoostConfig{Rounds: 60}, r)
	case KernelSVM:
		base, err = classifier.TrainRBFSVM(Z, y, classifier.RBFSVMConfig{Gamma: 0.5, Features: 128}, r)
	default:
		base, err = classifier.TrainLinearSVM(Z, y, classifier.LinearSVMConfig{}, r)
	}
	if err != nil {
		return nil, err
	}
	return &standardizedModel{std: std, base: base}, nil
}

// standardizedModel composes a standardizer with a trained model.
type standardizedModel struct {
	std  *classifier.Standardizer
	base classifier.Model
}

func (m *standardizedModel) Score(x []float64) float64 { return m.base.Score(m.std.Apply(x)) }
func (m *standardizedModel) Predict(x []float64) bool  { return m.base.Predict(m.std.Apply(x)) }
func (m *standardizedModel) Probabilistic() bool       { return m.base.Probabilistic() }

// thresholdedModel overrides a model's decision rule with a tuned score
// threshold. Classifiers here are trained on *balanced* pair samples
// (§2.1.1: training data need not be representative), so their native
// decision boundary predicts far too many positives under the pool's
// extreme imbalance; like any production matcher, the pipeline picks the
// match threshold for the deployment regime (the paper's "matching" stage:
// sufficiently high-scoring pairs form R̂).
type thresholdedModel struct {
	base      classifier.Model
	threshold float64
}

func (m *thresholdedModel) Score(x []float64) float64 { return m.base.Score(x) }
func (m *thresholdedModel) Predict(x []float64) bool  { return m.base.Score(x) > m.threshold }
func (m *thresholdedModel) Probabilistic() bool       { return m.base.Probabilistic() }

// tuneThreshold picks the score threshold maximising the imbalance-weighted
// F_1/2: matchScores and nonScores are scores of sampled matching and
// non-matching pairs, reweighted to the population totals totalMatch and
// totalNon. Candidate thresholds are midpoints between adjacent distinct
// scores (plus the extremes).
func tuneThreshold(matchScores, nonScores []float64, totalMatch, totalNon float64) float64 {
	if len(matchScores) == 0 || len(nonScores) == 0 {
		return 0
	}
	wM := totalMatch / float64(len(matchScores))
	wN := totalNon / float64(len(nonScores))
	type scored struct {
		s     float64
		match bool
	}
	all := make([]scored, 0, len(matchScores)+len(nonScores))
	for _, s := range matchScores {
		all = append(all, scored{s, true})
	}
	for _, s := range nonScores {
		all = append(all, scored{s, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].s < all[j].s })
	// Sweep thresholds from below the minimum upward. Start with everything
	// predicted positive.
	tp := totalMatch
	fp := totalNon
	fn := 0.0
	bestF := fMeasureSafe(tp, fp, fn)
	bestT := all[0].s - 1
	for i := 0; i < len(all); i++ {
		// Raise the threshold just above all[i].s: items at this score (and
		// any ties) flip to predicted-negative.
		j := i
		for j < len(all) && all[j].s == all[i].s {
			if all[j].match {
				tp -= wM
				fn += wM
			} else {
				fp -= wN
			}
			j++
		}
		i = j - 1
		f := fMeasureSafe(tp, fp, fn)
		if f > bestF {
			bestF = f
			if j < len(all) {
				bestT = (all[i].s + all[j].s) / 2
			} else {
				bestT = all[i].s + 1
			}
		}
	}
	return bestT
}

func fMeasureSafe(tp, fp, fn float64) float64 {
	den := 0.5*(tp+fp) + 0.5*(tp+fn)
	if den <= 0 {
		return 0
	}
	return tp / den
}

// calibrated wraps Platt calibration around a standardizedModel using
// held-out features.
func calibrate(m classifier.Model, X [][]float64, y []bool) (classifier.Model, error) {
	cal, err := classifier.Calibrate(m, X, y)
	if err != nil {
		return nil, err
	}
	return cal, nil
}

// buildPool scores the chosen pairs and assembles and validates the pool:
// the one check a built pool gets, since the stratifiers trust their input.
// threshold is the tuned decision threshold in raw-score space, recorded for
// the logistic probability mapping of uncalibrated pools.
func buildPool(name string, model classifier.Model, feats [][]float64, truth []float64, threshold float64) (*pool.Pool, error) {
	n := len(feats)
	p := &pool.Pool{
		Name:          name,
		Scores:        make([]float64, n),
		Preds:         make([]bool, n),
		TruthProb:     truth,
		Probabilistic: model.Probabilistic(),
		Threshold:     threshold,
	}
	for i, x := range feats {
		p.Scores[i] = model.Score(x)
		p.Preds[i] = model.Predict(x)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// splitTrainCal splits training data for optional calibration.
func splitTrainCal(X [][]float64, y []bool, calibrateModel bool, r *rng.RNG) (tx [][]float64, ty []bool, cx [][]float64, cy []bool) {
	if !calibrateModel {
		return X, y, nil, nil
	}
	train, cal := classifier.TrainTestSplit(len(X), 0.7, r)
	for _, i := range train {
		tx = append(tx, X[i])
		ty = append(ty, y[i])
	}
	for _, i := range cal {
		cx = append(cx, X[i])
		cy = append(cy, y[i])
	}
	return tx, ty, cx, cy
}

var errTooFewMatches = errors.New("pipeline: dataset has fewer matches than requested for the pool")

// samplePairs draws exactly nMatch matched pairs and nPool−nMatch distinct
// non-matching pairs. allMatches enumerates every matching pair; isMatch
// tests a candidate; draw generates a uniform random candidate pair.
func samplePairs(nPool, nMatch int, allMatches []pairRef,
	isMatch func(pairRef) bool, draw func() pairRef, r *rng.RNG) ([]pairRef, error) {
	if nMatch > len(allMatches) {
		return nil, fmt.Errorf("%w: want %d, have %d", errTooFewMatches, nMatch, len(allMatches))
	}
	if nMatch > nPool {
		return nil, fmt.Errorf("pipeline: pool matches %d exceed pool size %d", nMatch, nPool)
	}
	pairs := make([]pairRef, 0, nPool)
	perm := r.SampleWithoutReplacement(len(allMatches), nMatch)
	for _, idx := range perm {
		pairs = append(pairs, allMatches[idx])
	}
	seen := make(map[pairRef]struct{}, nPool)
	for _, pr := range pairs {
		seen[pr] = struct{}{}
	}
	for len(pairs) < nPool {
		cand := draw()
		if _, dup := seen[cand]; dup {
			continue
		}
		if isMatch(cand) {
			continue
		}
		seen[cand] = struct{}{}
		pairs = append(pairs, cand)
	}
	r.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	return pairs, nil
}
