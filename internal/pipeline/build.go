package pipeline

import (
	"fmt"

	"oasis/internal/classifier"
	"oasis/internal/dataset"
	"oasis/internal/pool"
	"oasis/internal/rng"
)

// BuildTwoSourcePool constructs an evaluation pool from a two-source dataset:
// it trains the configured classifier on a balanced labelled pair sample,
// then scores a random pair pool containing exactly cfg.PoolMatches matching
// pairs (the Table 2 pooling procedure).
func BuildTwoSourcePool(ds *dataset.TwoSourceDataset, cfg Config) (*Result, error) {
	cfg.defaults()
	if cfg.PoolSize <= 0 {
		return nil, fmt.Errorf("pipeline: pool size %d", cfg.PoolSize)
	}
	r := rng.New(cfg.Seed)
	feat := NewFeaturizer(ds.Schema, ds.D1, ds.D2)
	reps1 := feat.Reps(ds.D1)
	reps2 := feat.Reps(ds.D2)

	// Enumerate matching pairs via EntityID join.
	byEntity := make(map[int][]int)
	for i, rec := range ds.D1 {
		byEntity[rec.EntityID] = append(byEntity[rec.EntityID], i)
	}
	var allMatches []pairRef
	for j, rec := range ds.D2 {
		for _, i := range byEntity[rec.EntityID] {
			allMatches = append(allMatches, pairRef{i, j})
		}
	}
	isMatch := func(pr pairRef) bool {
		return ds.D1[pr.i].EntityID == ds.D2[pr.j].EntityID
	}
	drawPair := func() pairRef {
		return pairRef{r.Intn(len(ds.D1)), r.Intn(len(ds.D2))}
	}
	features := func(pr pairRef, dst []float64) []float64 {
		return feat.PairFeatures(&reps1[pr.i], &reps2[pr.j], dst)
	}
	return assemble(ds.Name, feat, cfg, r, ds.NumPairs(), allMatches, isMatch, drawPair, features)
}

// BuildDedupPool constructs an evaluation pool from a dedup dataset over
// unordered record pairs {i, j}, i < j.
func BuildDedupPool(ds *dataset.DedupDataset, cfg Config) (*Result, error) {
	cfg.defaults()
	if cfg.PoolSize <= 0 {
		return nil, fmt.Errorf("pipeline: pool size %d", cfg.PoolSize)
	}
	n := len(ds.Records)
	if maxPairs := n * (n - 1) / 2; cfg.PoolSize > maxPairs {
		return nil, fmt.Errorf("pipeline: pool size %d exceeds %d candidate pairs", cfg.PoolSize, maxPairs)
	}
	r := rng.New(cfg.Seed)
	feat := NewFeaturizer(ds.Schema, ds.Records)
	reps := feat.Reps(ds.Records)

	// Enumerate matching pairs in record order — pair each record with the
	// earlier members of its entity — so the match list, and with it every
	// draw the seeded RNG makes from it, is the same on every build.
	byEntity := make(map[int][]int)
	var allMatches []pairRef
	for j, rec := range ds.Records {
		for _, i := range byEntity[rec.EntityID] {
			allMatches = append(allMatches, pairRef{i, j})
		}
		byEntity[rec.EntityID] = append(byEntity[rec.EntityID], j)
	}
	isMatch := func(pr pairRef) bool {
		return ds.Records[pr.i].EntityID == ds.Records[pr.j].EntityID
	}
	drawPair := func() pairRef {
		i := r.Intn(n)
		j := r.Intn(n - 1)
		if j >= i {
			j++
		}
		if i > j {
			i, j = j, i
		}
		return pairRef{i, j}
	}
	features := func(pr pairRef, dst []float64) []float64 {
		return feat.PairFeatures(&reps[pr.i], &reps[pr.j], dst)
	}
	return assemble(ds.Name, feat, cfg, r, ds.NumPairs(), allMatches, isMatch, drawPair, features)
}

// assemble runs the shared tail of pool construction: sample training pairs,
// train the model, tune its decision threshold for the population imbalance,
// optionally calibrate, then sample and score the pool.
func assemble(name string, feat *Featurizer, cfg Config, r *rng.RNG, totalPairs int,
	allMatches []pairRef, isMatch func(pairRef) bool, drawPair func() pairRef,
	features func(pairRef, []float64) []float64) (*Result, error) {

	// ---- Training set: balanced matches vs random non-matches ----
	nTrainMatch := int(float64(cfg.TrainPairs) * cfg.TrainMatchFrac)
	if nTrainMatch > len(allMatches) {
		nTrainMatch = len(allMatches)
	}
	if nTrainMatch < 1 {
		return nil, fmt.Errorf("pipeline: dataset %s has no matches to train on", name)
	}
	var trainX [][]float64
	var trainY []bool
	for _, idx := range r.SampleWithoutReplacement(len(allMatches), nTrainMatch) {
		trainX = append(trainX, features(allMatches[idx], nil))
		trainY = append(trainY, true)
	}
	for len(trainX) < cfg.TrainPairs {
		cand := drawPair()
		if isMatch(cand) {
			continue
		}
		trainX = append(trainX, features(cand, nil))
		trainY = append(trainY, false)
	}

	tx, ty, cx, cy := splitTrainCal(trainX, trainY, cfg.Calibrate, r)
	base, err := trainModel(tx, ty, cfg, r)
	if err != nil {
		return nil, err
	}

	// ---- Decision threshold tuned for the population imbalance ----
	// The classifier trains on a balanced sample; its native boundary would
	// flood the imbalanced pool with false positives. Tune the matching
	// threshold on a fresh imbalance-weighted validation sample (the
	// pipeline's "matching" stage).
	nValMatch := 500
	if nValMatch > len(allMatches) {
		nValMatch = len(allMatches)
	}
	var matchScores []float64
	for _, idx := range r.SampleWithoutReplacement(len(allMatches), nValMatch) {
		matchScores = append(matchScores, base.Score(features(allMatches[idx], nil)))
	}
	// The interesting non-match tail is rare (FP rates ~1e-4), so the
	// validation sample must be large enough to resolve it.
	nValNon := 20000
	var nonScores []float64
	buf := make([]float64, feat.NumFeatures())
	for len(nonScores) < nValNon {
		cand := drawPair()
		if isMatch(cand) {
			continue
		}
		nonScores = append(nonScores, base.Score(features(cand, buf)))
	}
	threshold := tuneThreshold(matchScores, nonScores,
		float64(len(allMatches)), float64(totalPairs-len(allMatches)))
	var model classifier.Model = &thresholdedModel{base: base, threshold: threshold}
	if cfg.Calibrate {
		model, err = calibrate(model, cx, cy)
		if err != nil {
			return nil, err
		}
	}

	// ---- Evaluation pool ----
	pairs, err := samplePairs(cfg.PoolSize, cfg.PoolMatches, allMatches, isMatch, drawPair, r)
	if err != nil {
		return nil, err
	}
	feats := make([][]float64, len(pairs))
	truth := make([]float64, len(pairs))
	for i, pr := range pairs {
		feats[i] = features(pr, nil)
		if isMatch(pr) {
			truth[i] = 1
		}
	}
	p := buildPool(name, model, feats, truth, threshold)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Result{Pool: p, Model: model, Featurizer: feat}, nil
}

// BuildPointsPool constructs an evaluation pool from a plain classification
// dataset (tweets100k): the classifier is trained on points outside the pool
// and the pool holds scored held-out points. PoolMatches is ignored — class
// balance follows the data, as in the paper.
func BuildPointsPool(ds *dataset.PointsDataset, cfg Config) (*Result, error) {
	cfg.defaults()
	if cfg.PoolSize <= 0 || cfg.PoolSize >= len(ds.X) {
		return nil, fmt.Errorf("pipeline: points pool size %d of %d items", cfg.PoolSize, len(ds.X))
	}
	r := rng.New(cfg.Seed)
	perm := r.Perm(len(ds.X))
	poolIdx := perm[:cfg.PoolSize]
	rest := perm[cfg.PoolSize:]
	nTrain := cfg.TrainPairs
	if nTrain > len(rest) {
		nTrain = len(rest)
	}
	var trainX [][]float64
	var trainY []bool
	for _, i := range rest[:nTrain] {
		trainX = append(trainX, ds.X[i])
		trainY = append(trainY, ds.Labels[i])
	}
	tx, ty, cx, cy := splitTrainCal(trainX, trainY, cfg.Calibrate, r)
	model, err := trainModel(tx, ty, cfg, r)
	if err != nil {
		return nil, err
	}
	if cfg.Calibrate {
		model, err = calibrate(model, cx, cy)
		if err != nil {
			return nil, err
		}
	}
	feats := make([][]float64, len(poolIdx))
	truth := make([]float64, len(poolIdx))
	for i, idx := range poolIdx {
		feats[i] = ds.X[idx]
		if ds.Labels[idx] {
			truth[i] = 1
		}
	}
	p := buildPool(ds.Name, model, feats, truth, 0)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Result{Pool: p, Model: model, Featurizer: nil}, nil
}

// BuildProfilePool materialises a dataset profile and builds its Table 2
// pool at the given scale (pool size and match count multiplied by scale,
// minimum 1 match). Scale 1.0 reproduces the paper's pool shapes.
func BuildProfilePool(prof dataset.Profile, scale float64, cfg Config) (*Result, error) {
	if scale <= 0 {
		scale = 1
	}
	cfg.defaults()
	if cfg.PoolSize == 0 {
		cfg.PoolSize = int(float64(prof.Paper.PoolSize) * scale)
	}
	if cfg.PoolMatches == 0 {
		cfg.PoolMatches = int(float64(prof.Paper.PoolMatches) * scale)
		if cfg.PoolMatches < 1 {
			cfg.PoolMatches = 1
		}
	}
	if cfg.Seed == 0 {
		cfg.Seed = prof.Config.Seed + 977
	}
	generated, err := prof.Generate()
	if err != nil {
		return nil, err
	}
	switch ds := generated.(type) {
	case *dataset.TwoSourceDataset:
		return BuildTwoSourcePool(ds, cfg)
	case *dataset.DedupDataset:
		return BuildDedupPool(ds, cfg)
	case *dataset.PointsDataset:
		return BuildPointsPool(ds, cfg)
	default:
		return nil, fmt.Errorf("pipeline: unsupported dataset type %T", generated)
	}
}

// OperatingPoint reports the true precision, recall and F_1/2 of the pool —
// the Table 2 columns — computed from ground truth.
func OperatingPoint(p *pool.Pool) (precision, recall, f50 float64) {
	return p.TruePrecision(), p.TrueRecall(), p.TrueFMeasure(0.5)
}

// ensure interface satisfaction is visible to callers of Result.Model.
var _ classifier.Model = (*standardizedModel)(nil)
