package oasis

import (
	"errors"
	"fmt"
	"math"
	"time"

	"oasis/internal/diag"
	"oasis/internal/estimator"
	"oasis/internal/pool"
	"oasis/internal/rng"
	"oasis/internal/sampler"
	"oasis/internal/strata"
)

// ScoreKind declares how a pool's similarity scores should be interpreted.
type ScoreKind int

const (
	// UncalibratedScores are raw real-valued scores (e.g. SVM margins);
	// they are mapped to probabilities through a logistic transform around
	// the decision threshold when the algorithm needs probabilities.
	UncalibratedScores ScoreKind = iota
	// CalibratedScores are probabilities in [0, 1] (Definition 3 of the
	// paper): of the pairs scored ρ, about 100ρ% are matches.
	CalibratedScores
)

// Pool is an evaluation pool: one similarity score and one predicted label
// per candidate record pair. Build one with NewPool.
type Pool struct {
	inner *pool.Pool
}

// NewPool builds an evaluation pool from parallel slices of similarity
// scores and predicted labels. For UncalibratedScores the decision threshold
// is taken to be 0; use NewPoolThreshold to override.
func NewPool(scores []float64, preds []bool, kind ScoreKind) (*Pool, error) {
	return NewPoolThreshold(scores, preds, kind, 0)
}

// NewPoolThreshold is NewPool with an explicit score threshold τ used by the
// logistic mapping of uncalibrated scores (Algorithm 2 line 4).
func NewPoolThreshold(scores []float64, preds []bool, kind ScoreKind, threshold float64) (*Pool, error) {
	if len(scores) != len(preds) {
		return nil, fmt.Errorf("oasis: %d scores but %d predictions", len(scores), len(preds))
	}
	p := &pool.Pool{
		Scores:        append([]float64(nil), scores...),
		Preds:         append([]bool(nil), preds...),
		Probabilistic: kind == CalibratedScores,
		Threshold:     threshold,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Pool{inner: p}, nil
}

// N returns the number of record pairs in the pool.
func (p *Pool) N() int { return p.inner.N() }

// NumPredPositives returns the number of predicted matches.
func (p *Pool) NumPredPositives() int { return p.inner.NumPredPositives() }

// Internal exposes the internal pool to sibling packages (erbench); it is
// not part of the supported public surface.
func (p *Pool) Internal() *pool.Pool { return p.inner }

// WrapPool adapts an internal pool (e.g. one built by erbench) to the public
// Pool type. The pool must already be valid (pool.Validate): nothing
// downstream checks it again.
func WrapPool(inner *pool.Pool) *Pool { return &Pool{inner: inner} }

// StratifierKind selects the stratification rule.
type StratifierKind int

const (
	// CSFStratifier is the Cumulative √F rule of Dalenius & Hodges used by
	// the paper (Algorithm 1). Default.
	CSFStratifier StratifierKind = iota
	// EqualSizeStratifier cuts the score-sorted pool into equal-size strata.
	EqualSizeStratifier
)

// Options configures an OASIS sampler (Algorithm 3's inputs).
type Options struct {
	// Alpha is the F-measure weight: 1 estimates precision and 0.5 (or the
	// zero value, the default) the balanced F-measure. To estimate recall
	// (α = 0) set Recall instead, since 0 is the "unset" value.
	Alpha float64
	// Recall requests α = 0 (recall estimation), overriding Alpha.
	Recall bool
	// Epsilon is the ε-greedy exploration rate in (0, 1]; default 1e-3
	// (the paper's setting).
	Epsilon float64
	// Strata is the target number of strata K; default 30 (the paper finds
	// 30–60 works well across datasets).
	Strata int
	// StrataBins is the histogram resolution for the CSF rule; 0 picks a
	// sensible default.
	StrataBins int
	// Stratifier selects the stratification rule; default CSF.
	Stratifier StratifierKind
	// PriorStrength is η, the pseudo-count weight of the score-based Beta
	// prior; 0 means the paper's default 2K.
	PriorStrength float64
	// NoPriorDecay disables the Remark 4 modification (prior influence
	// decaying as labels accumulate). Decay is on by default; disabling it
	// reproduces the paper's bare Algorithm 3.
	NoPriorDecay bool
	// PosteriorEstimate reports the stratified posterior plug-in estimate
	// instead of the importance-weighted AIS ratio of Eqn. (3).
	PosteriorEstimate bool
	// Seed drives all sampling randomness.
	Seed uint64
}

// WithDefaults resolves the zero-value conventions: Recall forces α = 0,
// an unset Alpha becomes the balanced 0.5, an unset Strata becomes 30. It
// is what NewSampler and the baseline constructors apply; external layers
// (e.g. the session subsystem) use it to interpret Options identically.
func (o Options) WithDefaults() Options {
	if o.Recall {
		o.Alpha = 0
	} else if o.Alpha == 0 {
		o.Alpha = 0.5
	}
	if o.Strata <= 0 {
		o.Strata = 30
	}
	return o
}

// OracleFunc returns the (possibly noisy) true label of pool pair i. It is
// the caller's interface to the labelling resource — a crowd, an expert, or
// ground truth in experiments.
type OracleFunc func(i int) bool

// Label implements the internal oracle interface.
func (f OracleFunc) Label(i int) bool { return f(i) }

// Result summarises a sampling run.
type Result struct {
	// FMeasure is the final estimate F̂_α.
	FMeasure float64
	// LabelsConsumed is the number of distinct pairs labelled.
	LabelsConsumed int
	// Iterations is the number of draws taken (≥ LabelsConsumed; sampling
	// is with replacement and cached labels are free).
	Iterations int
}

// Sampler is the OASIS adaptive importance sampler over a pool.
//
// ProposeBatch draws pairs for an external labelling resource (a crowd, a
// service queue) and CommitLabel folds each answer back in as it arrives.
// Run is the same engine with an in-process oracle: one proposal at a time,
// labelled at once. A Sampler is not safe for concurrent use; the session
// subsystem (internal/session, served by cmd/oasis-server) adds locking,
// leases and persistence on top.
//
// A Sampler is one engine in two halves: the OASIS model of Algorithms 2
// and 3 (Beta posteriors, the instrumental distribution v(t) and the AIS
// estimate; model.go) and the proposal engine that picks pairs and keeps
// their labels (this file).
type Sampler struct {
	str   *strata.Strata
	preds []bool // the pool's predicted labels, read by the estimator
	rng   *rng.RNG

	// Hyperparameters of Algorithm 3, resolved once by NewSamplerStratified.
	alpha, epsilon, eta           float64
	priorDecay, posteriorEstimate bool

	// Bayesian model state: prior0[k], prior1[k] are the prior
	// pseudo-counts of matches and non-matches (Γ(0), rows of Eqn. 9),
	// count0[k], count1[k] the labels that arrived, and labelsSeen[k] = n_k
	// the terms folded into stratum k, which drives the Remark 4 prior decay.
	prior0, prior1 []float64
	count0, count1 []float64
	labelsSeen     []int64

	// Per-stratum weight moments over folded terms: Σw and Σw² broken out
	// by the stratum the draw came from. The estimator keeps only the pooled
	// moments; these feed the convergence diagnostics.
	stratSumW, stratSumW2 []float64

	// Initial estimates π̂(0) and F̂(0) (Algorithm 2).
	piInit []float64
	fInit  float64

	est estimator.Weighted

	// Cached instrumental distribution: v, a prepared O(log K) inverse-CDF
	// sampler vCum over it and the importance weights ω_k/v_k, rebuilt
	// lazily behind vFresh (see refreshV). piBuf and vStar are scratch.
	piBuf, vStar, v []float64
	vCum            rng.Cumulative
	vWeight         []float64
	vFresh          bool

	// Rebuild accounting for tracing: how many times the cached v(t) and the
	// availability mask were actually rebuilt, and the nanoseconds those
	// rebuilds took. The fresh-path checks cost nothing extra.
	rebuilds     uint64
	rebuildNanos int64

	// Propose/commit bookkeeping: outstanding proposals live in a dense slab
	// (pendingSlab) indexed per pair by its slot state, holding every draw
	// awaiting that pair's label (with-replacement re-draws of an
	// outstanding pair queue additional weighted terms). The slab keeps the
	// propose/commit hot path free of map operations: insert is an append,
	// removal a swap-remove, both O(1).
	pendingSlab []pendingEntry
	// slots interleaves each pair with its proposal state in the strata's
	// Perm order (stratum k occupies [slotOff[k], slotOff[k+1]), ascending
	// pool index within each stratum). A uniform pair draw indexes slots
	// once: pair identity and state — committed label included — share an
	// 8-byte load, so the hot path takes a single random memory access
	// instead of two dependent ones. slotOff and posOfPair alias the strata's
	// Off and Pos (read-only); posOfPair maps a pool index back to its slot
	// for the (colder) commit/release paths. Only slots is per sampler.
	slots     []pairSlot
	slotOff   []int32
	posOfPair []int32
	// committed lists the labelled pairs in commit order (their labels live
	// in slots), so the label counters and snapshots cost O(labels).
	committed []int32
	// extraDraws holds the re-draws of outstanding pairs (rare): keeping
	// them out of the slab makes slab entries pointer-free scalars, so the
	// propose hot path never takes a GC write barrier.
	extraDraws map[int][]DrawTerm

	// Proposability accounting for the rejection-free draw path. Everything
	// here is a pure function of (labels, pending), so a sampler restored
	// from a snapshot rebuilds byte-identical state and continues the exact
	// same proposal sequence as the live sampler it was taken from.
	availCount []int32 // per stratum: pairs neither labelled nor outstanding
	availTotal int     // Σ availCount

	// Availability-masked stratum sampler for the near-exhaustion direct
	// mode: v(t) restricted to strata that still hold a proposable pair
	// (maskCum.Sum() is the retained mass Σ_avail v). Rebuilt lazily when
	// v(t) is invalidated or the availability sets change.
	maskCum   rng.Cumulative
	maskBuf   []float64
	maskDirty bool
}

// pendingEntry is one outstanding proposal: the pair, its stratum, and the
// importance weight frozen when it was drawn. Re-draws of the pair while its
// label is in flight are queued separately in Sampler.extraDraws. The entry
// is a compact pointer-free scalar so slab operations stay allocation- and
// write-barrier-free.
type pendingEntry struct {
	pair    int32
	stratum int32
	weight  float64
}

// pairSlot is one pool pair in stratum order with its proposal state: ≥ 0
// is the slab index of the pair's outstanding proposal, pairAvailable means
// proposable, pairNonMatch and pairMatch mean committed with that label.
type pairSlot struct {
	pair  int32
	state int32
}

// Sentinel values of pairSlot.state for pairs with no outstanding proposal.
// Every state below pairAvailable is a committed label.
const (
	pairAvailable int32 = -1
	pairNonMatch  int32 = -2
	pairMatch     int32 = -3
)

// Stratification is a precomputed, immutable stratification of a pool,
// produced by Stratify. It is a pure function of the pool's columns and the
// strata-shaping options, so it can be cached and shared: every sampler
// built over the same (pool, options) via NewSamplerStratified reads its
// one stratum layout (an int32 permutation of the pool in stratum order,
// its inverse and K+1 offsets) in place instead of stratifying again (a
// linear pass for CSF, a sort for equal-size strata). Treat it as
// read-only.
type Stratification struct {
	s *strata.Strata
}

// K returns the number of strata actually built (may be fewer than the
// requested Options.Strata; see NewSampler).
func (st *Stratification) K() int { return st.s.K() }

// MemBytes returns the bytes the stratification holds, for cache
// accounting: 8 per pool pair (the permutation and its inverse) plus O(K)
// offsets and per-stratum statistics.
func (st *Stratification) MemBytes() int64 { return st.s.MemBytes() }

// Internal exposes the stratum layout to sibling packages (erbench); it is
// not part of the supported public surface.
func (st *Stratification) Internal() *strata.Strata { return st.s }

// Stratify computes the stratification NewSampler builds internally for
// (p, opts): CSF or equal-size per opts.Stratifier with the same option
// defaulting. It does not re-validate the pool: NewPool validated it, and so
// did whatever built a pool handed to WrapPool.
func Stratify(p *Pool, opts Options) (*Stratification, error) {
	opts = opts.WithDefaults()
	var (
		s   *strata.Strata
		err error
	)
	switch opts.Stratifier {
	case EqualSizeStratifier:
		s, err = strata.EqualSize(p.inner, opts.Strata)
	default:
		s, err = strata.CSF(p.inner, opts.Strata, opts.StrataBins)
	}
	if err != nil {
		return nil, err
	}
	return &Stratification{s: s}, nil
}

// NewSampler stratifies the pool and initialises OASIS from its scores
// (Algorithms 1 and 2), returning a ready-to-run sampler.
func NewSampler(p *Pool, opts Options) (*Sampler, error) {
	st, err := Stratify(p, opts)
	if err != nil {
		return nil, err
	}
	return NewSamplerStratified(p, opts, st)
}

// NewSamplerStratified is NewSampler over a precomputed stratification: the
// stratify is skipped, and nothing re-validates the pool (it was validated
// where it entered the program: NewPool, the code that built a pool handed
// to WrapPool, or the session layer's pool store). st must come from
// Stratify over this same pool with these same strata options — a mismatched
// stratification silently corrupts every estimate. The sampler produced is
// bit-identical to what NewSampler would build: the stratification is
// deterministic, and all randomness seeds from opts.Seed afterwards.
func NewSamplerStratified(p *Pool, opts Options, st *Stratification) (*Sampler, error) {
	str := st.s
	if str.N() != p.N() {
		return nil, fmt.Errorf("oasis: stratification of %d pairs does not cover a pool of %d", str.N(), p.N())
	}
	opts = opts.WithDefaults()
	k := str.K()
	// ε-greedy exploration weight in (0, 1] (default 1e-3, the paper's) and
	// the prior strength η (default 2K, the paper's).
	eps := opts.Epsilon
	if eps <= 0 {
		eps = 1e-3
	}
	eta := opts.PriorStrength
	if eta <= 0 {
		eta = 2 * float64(k)
	}
	s := &Sampler{
		str:               str,
		preds:             p.inner.Preds,
		rng:               rng.New(opts.Seed),
		alpha:             opts.Alpha,
		epsilon:           min(eps, 1),
		eta:               eta,
		priorDecay:        !opts.NoPriorDecay,
		posteriorEstimate: opts.PosteriorEstimate,
		prior0:            make([]float64, k),
		prior1:            make([]float64, k),
		count0:            make([]float64, k),
		count1:            make([]float64, k),
		labelsSeen:        make([]int64, k),
		stratSumW:         make([]float64, k),
		stratSumW2:        make([]float64, k),
		piInit:            make([]float64, k),
		est:               estimator.Weighted{Alpha: opts.Alpha},
		piBuf:             make([]float64, k),
		vStar:             make([]float64, k),
		v:                 make([]float64, k),
		vWeight:           make([]float64, k),
		slots:             make([]pairSlot, str.N()),
		slotOff:           str.Off,
		posOfPair:         str.Pos,
		availCount:        make([]int32, k),
		maskBuf:           make([]float64, k),
	}
	s.initModel()
	s.resetAvailability(nil)
	return s, nil
}

// resetAvailability rebuilds the label store and the proposability
// accounting from labels, with no outstanding proposals: every unlabelled
// pair is available.
func (s *Sampler) resetAvailability(labels map[int]bool) {
	slots := s.slots[:len(s.str.Perm)]
	for i, pair := range s.str.Perm {
		slots[i] = pairSlot{pair: pair, state: pairAvailable}
	}
	s.pendingSlab = s.pendingSlab[:0]
	s.extraDraws = nil
	s.committed = s.committed[:0]
	for k := range s.availCount {
		s.availCount[k] = int32(s.str.Size(k))
	}
	s.availTotal = s.str.N()
	for pair, label := range labels {
		s.markLabelled(pair, label)
		s.availCount[s.str.StratumOf(pair)]--
		s.availTotal--
	}
	s.maskDirty = true
}

// markLabelled records pair's committed label in its slot and in the commit
// order. The caller adjusts availability if the pair was proposable.
func (s *Sampler) markLabelled(pair int, label bool) {
	state := pairNonMatch
	if label {
		state = pairMatch
	}
	s.slots[s.posOfPair[pair]].state = state
	s.committed = append(s.committed, int32(pair))
}

// pairState returns the proposal state of pair, or pairAvailable for an
// out-of-range index (defensive: callers pass client-supplied pair ids).
func (s *Sampler) pairState(pair int) int32 {
	if pair < 0 || pair >= len(s.posOfPair) {
		return pairAvailable
	}
	return s.slots[s.posOfPair[pair]].state
}

// removePending swap-removes pair's slab entry, returning it together with
// any queued re-draws. The caller must know the pair is outstanding.
func (s *Sampler) removePending(pair int) (pendingEntry, []DrawTerm) {
	idx := s.slots[s.posOfPair[pair]].state
	entry := s.pendingSlab[idx]
	last := len(s.pendingSlab) - 1
	if int(idx) != last {
		moved := s.pendingSlab[last]
		s.pendingSlab[idx] = moved
		s.slots[s.posOfPair[moved.pair]].state = idx
	}
	s.pendingSlab = s.pendingSlab[:last]
	s.slots[s.posOfPair[pair]].state = pairAvailable
	var extra []DrawTerm
	if len(s.extraDraws) > 0 {
		extra = s.extraDraws[pair]
		delete(s.extraDraws, pair)
	}
	return entry, extra
}

// queueExtra queues a re-draw of the outstanding pair, applied when its
// label arrives.
func (s *Sampler) queueExtra(pair int, t DrawTerm) {
	if s.extraDraws == nil {
		s.extraDraws = make(map[int][]DrawTerm)
	}
	s.extraDraws[pair] = append(s.extraDraws[pair], t)
}

// K returns the realised number of strata (≤ Options.Strata).
func (s *Sampler) K() int { return s.str.K() }

// InitialEstimate returns the score-based initial F̂(0) of Algorithm 2.
func (s *Sampler) InitialEstimate() float64 { return s.fInit }

// Estimate returns the current F-measure estimate.
func (s *Sampler) Estimate() float64 { return s.currentF() }

// Health summarises the estimator's statistical health for monitoring:
// the current estimate, the delta-method asymptotic variance σ̂² (so that
// Var(F̂) ≈ σ̂²/Terms), the effective sample size of the importance
// weights, and ESS/Terms. An ESSRatio collapsing toward zero signals
// weight degeneracy — the estimate's nominal sample count overstates the
// information actually collected.
type Health struct {
	Estimate           float64
	AsymptoticVariance float64
	ESS                float64
	ESSRatio           float64
	Terms              int
}

// Health reports the sampler's current estimator health.
func (s *Sampler) Health() Health {
	return Health{
		Estimate:           s.currentF(),
		AsymptoticVariance: s.est.AsymptoticVariance(),
		ESS:                s.est.ESS(),
		ESSRatio:           s.est.ESSRatio(),
		Terms:              s.est.N(),
	}
}

// StratumDiagnostics reports the per-stratum convergence diagnostics: for
// every stratum, how many labelled draws landed there, the Σw/Σw² weight
// moments and local ESS those draws contributed, and the realised draw
// share against the cached instrumental allocation v(t) (Skew = 1 when
// sampling matches the current adaptive optimum). Like every other sampler
// method it must be serialised with draws and commits by the caller.
func (s *Sampler) StratumDiagnostics() []diag.StratumHealth {
	return diag.StrataHealth(s.labelsSeen, s.stratSumW, s.stratSumW2, s.instrumental())
}

// Run labels `budget` more pairs through the oracle, one proposal at a
// time: each step is ProposeBatch(1) followed by CommitLabel with the
// oracle's answer. This is the paper's sequential Algorithm 3 — draws that
// land on labelled pairs are folded in for free (footnote 5), and only a
// fresh pair reaches the oracle — and sampler.Run drives it, as it drives
// the baselines. Run continues any sampler: its labels join those already
// committed, and outstanding proposals stay outstanding. It returns the
// final estimate; LabelsConsumed falls below budget only when the pool runs
// out of proposable pairs.
func (s *Sampler) Run(o OracleFunc, budget int) (*Result, error) {
	if budget <= 0 {
		return nil, errBudget
	}
	terms := s.est.N()
	// Capped at the proposable supply, the run can neither stall nor exhaust
	// the pool, and with no hook sampler.Run has no other error to return.
	labels, _, _ := sampler.Run(sampler.Served{Proposer: s}, o, min(budget, s.availTotal), nil)
	return &Result{
		FMeasure:       s.Estimate(),
		LabelsConsumed: labels,
		Iterations:     s.est.N() - terms,
	}, nil
}

var errBudget = errors.New("oasis: budget must be positive")

// ErrNotProposed is returned by CommitLabel for a pair that has no
// outstanding proposal and no committed label — e.g. a proposal whose lease
// was released before the label arrived.
var ErrNotProposed = errors.New("oasis: pair was not proposed (or its proposal was released)")

// ErrExhausted is returned by ProposeBatch when the proposable supply runs
// out before the batch is full: every pair in the pool is either labelled or
// outstanding. The partial batch drawn so far is returned alongside the
// error. Once outstanding proposals are committed or released the supply can
// recover; when the whole pool is labelled it is terminal.
var ErrExhausted = errors.New("oasis: no proposable pairs (pool labelled or fully outstanding)")

// proposeStormLimit bounds the consecutive with-replacement draws that fail
// to yield a fresh proposal (free commits of already-labelled pairs, queued
// re-draws of outstanding ones) before ProposeBatch escalates to the direct
// mode, which draws the next proposal from the availability-masked
// instrumental distribution in bounded time. The limit is reached whenever
// v(t) concentrates on strata that are mostly labelled or outstanding, and
// more often at larger batches, which adapt v(t) less often: on uncalibrated
// Abt-Buy (erbench scale 1.0, pool seed 1, K = 30, sampler seed 200, 20,000
// labels) 23 proposals came from direct mode at batch 1 and 734 at batch 16.
const proposeStormLimit = 32

// ProposeBatch draws n distinct unlabelled pairs from the current
// instrumental distribution and returns their pool indices, marking each as
// an outstanding proposal. The caller routes the proposed pairs to its
// labelling resource and feeds answers back through CommitLabel in any
// order.
//
// Sampling is with replacement, exactly as in Algorithm 3: a re-draw of an
// already-committed pair is folded into the estimate immediately with its
// cached label (a "free" draw in the paper's budget accounting), and a
// re-draw of a still-outstanding pair queues an additional weighted term
// that is applied when that pair's label arrives. Each draw's importance
// weight is frozen at draw time, so batching leaves the estimator unchanged;
// only the adaptation happens in batch steps rather than per label.
//
// The draw path is rejection-free and amortized O(1) per draw: the
// instrumental distribution is cached between commits, every draw resolves
// against O(1) availability state, and when labelled/outstanding pairs
// dominate the drawn strata (proposeStormLimit consecutive non-proposal
// draws) the remaining proposals are drawn directly from the instrumental
// distribution restricted to proposable pairs, with importance weights
// corrected for the restriction.
//
// The batch has exactly n pairs while the proposable supply lasts. When the
// supply runs out mid-batch, ProposeBatch returns the partial batch (which
// may be empty) together with ErrExhausted — it never spins on a draw cap.
// Proposals return to the supply via Release; labels shrink it permanently.
func (s *Sampler) ProposeBatch(n int) ([]int, error) {
	if n <= 0 {
		return nil, errors.New("oasis: batch size must be positive")
	}
	// A batch can never exceed the proposable supply (Release is the only
	// thing that grows it, and it cannot run mid-batch), so cap the
	// allocation: a client asking for 2^31 pairs must not allocate 16 GiB.
	capHint := n
	if capHint > s.availTotal {
		capHint = s.availTotal
	}
	batch := make([]int, 0, capHint)
	misses := 0
	for len(batch) < n {
		if s.availTotal == 0 {
			return batch, ErrExhausted
		}
		if misses >= proposeStormLimit {
			// Direct mode: stratum ~ v(t) masked to strata with proposable
			// pairs, pair uniform among the stratum's proposable pairs. The
			// importance weight is the true inverse sampling probability of
			// the restricted draw: ω'_k/v'_k with v'_k = v_k/Σ_avail v and
			// ω'_k = A_k/N the restricted stratum mass.
			s.refreshMask()
			k := s.maskCum.Draw(s.rng)
			avail := float64(s.availCount[k])
			weight := s.maskCum.Sum() * avail / (float64(s.str.N()) * s.v[k])
			pos := s.pickAvailable(k)
			s.propose(pos, k, weight)
			batch = append(batch, int(s.slots[pos].pair))
			misses = 0
			continue
		}
		// One draw of the sequential algorithm: stratum ~ v(t) (cached),
		// pair uniform within the stratum. The slot read resolves pair
		// identity and proposal state with a single random memory access.
		k, weight := s.drawStratum()
		off := s.slotOff[k]
		pos := int(off) + s.rng.Intn(int(s.slotOff[k+1]-off))
		slot := s.slots[pos]
		pair := int(slot.pair)
		switch st := slot.state; {
		case st == pairAvailable:
			s.propose(pos, k, weight)
			batch = append(batch, pair)
			misses = 0
		case st < pairAvailable:
			// Free draw: fold the committed label in immediately, exactly as
			// the sequential algorithm re-labels for free.
			s.fold(pair, k, weight, st == pairMatch)
			misses++
		default:
			s.queueExtra(pair, DrawTerm{Stratum: k, Weight: weight})
			misses++
		}
	}
	return batch, nil
}

// propose marks the pair at slot pos (in stratum k) outstanding with its
// frozen draw weight. Both proposal paths — the with-replacement draw and
// the direct availability-masked mode — share this bookkeeping.
func (s *Sampler) propose(pos, k int, weight float64) {
	s.pendingSlab = append(s.pendingSlab, pendingEntry{
		pair:    s.slots[pos].pair,
		stratum: int32(k),
		weight:  weight,
	})
	s.slots[pos].state = int32(len(s.pendingSlab) - 1)
	s.availCount[k]--
	s.availTotal--
	s.maskDirty = true
}

// refreshMask rebuilds the availability-masked stratum sampler when the
// instrumental distribution or the availability sets changed. Requires
// availTotal > 0.
func (s *Sampler) refreshMask() {
	if !s.maskDirty {
		return
	}
	s.refreshV() // timed as a rebuild of its own
	start := time.Now()
	for k, vk := range s.v {
		if s.availCount[k] > 0 {
			s.maskBuf[k] = vk
		} else {
			s.maskBuf[k] = 0
		}
	}
	// v is strictly positive and at least one stratum is unmasked, so the
	// masked weights always carry positive mass.
	if err := s.maskCum.Reset(s.maskBuf); err != nil {
		panic("oasis: availability mask lost all mass: " + err.Error())
	}
	s.maskDirty = false
	s.rebuilds++
	s.rebuildNanos += time.Since(start).Nanoseconds()
}

// RebuildStats reports the sampler's dirty-flag cache rebuilds — the
// instrumental distribution v(t) plus the availability mask over it — as a
// cumulative count and total nanoseconds. The session layer reads deltas
// across one propose/commit call and records them as a sampler.rebuild
// span. Callers serialise as with every other sampler method.
func (s *Sampler) RebuildStats() (count uint64, nanos int64) {
	return s.rebuilds, s.rebuildNanos
}

// pickAvailable returns the slot position of a uniform draw from the
// proposable pairs of stratum k, which must have at least one. It first
// rejection-samples over the stratum's slots (O(1) status checks); if the
// proposable density is too low for that to land quickly, it falls back to
// counting off a uniform rank in slot order — deterministic, bounded by the
// stratum size.
func (s *Sampler) pickAvailable(k int) int {
	off := int(s.slotOff[k])
	slots := s.slots[off:s.slotOff[k+1]]
	r := s.rng
	avail := int(s.availCount[k])
	if avail*4 >= len(slots) {
		for tries := 0; tries < 16; tries++ {
			i := r.Intn(len(slots))
			if slots[i].state == pairAvailable {
				return off + i
			}
		}
	}
	j := r.Intn(avail)
	for i, slot := range slots {
		if slot.state == pairAvailable {
			if j == 0 {
				return off + i
			}
			j--
		}
	}
	panic("oasis: availability accounting out of sync with proposal state")
}

// CommitLabel applies the label of a previously proposed pair, updating the
// Beta posterior and the running estimate once per draw that was awaiting
// it. Committing an already-committed pair is a no-op (the first label
// wins); committing a pair that was never proposed — or whose proposal was
// released — returns ErrNotProposed.
func (s *Sampler) CommitLabel(pair int, label bool) error {
	_, err := s.commitLabel(pair, label, false)
	return err
}

// DrawTerm is one weighted estimator term applied when a pair's label is
// committed: the stratum the draw came from and the importance weight frozen
// at draw time. The durable journal (internal/wal) records every commit's
// terms so recovery can re-apply a commit even after its proposal was folded
// into a compaction snapshot.
type DrawTerm struct {
	Stratum int     `json:"k"`
	Weight  float64 `json:"w"`
}

// isTermOf reports whether t can be a draw of pair: it names the pair's own
// stratum with a finite positive weight. Journaled commits and snapshotted
// proposals are checked with it before they are applied.
func (s *Sampler) isTermOf(pair int, t DrawTerm) bool {
	return t.Stratum == s.str.StratumOf(pair) && t.Weight > 0 && t.Weight <= math.MaxFloat64
}

// CommitLabelTerms is CommitLabel, additionally returning the weighted terms
// folded into the estimator: the frozen draw that proposed the pair plus any
// re-draws queued while the label was in flight, in application order. A
// duplicate commit returns (nil, nil).
func (s *Sampler) CommitLabelTerms(pair int, label bool) ([]DrawTerm, error) {
	return s.commitLabel(pair, label, true)
}

// commitLabel is the shared commit path; terms are only materialised when
// the caller journals them, keeping the journal-less hot path allocation
// free.
func (s *Sampler) commitLabel(pair int, label bool, wantTerms bool) ([]DrawTerm, error) {
	switch st := s.pairState(pair); {
	case st < pairAvailable:
		return nil, nil
	case st == pairAvailable:
		return nil, ErrNotProposed
	}
	entry, extra := s.removePending(pair)
	s.markLabelled(pair, label) // was pending: availability unchanged
	s.fold(pair, int(entry.stratum), entry.weight, label)
	for _, t := range extra {
		s.fold(pair, t.Stratum, t.Weight, label)
	}
	if !wantTerms {
		return nil, nil
	}
	terms := make([]DrawTerm, 0, 1+len(extra))
	terms = append(terms, DrawTerm{Stratum: int(entry.stratum), Weight: entry.weight})
	return append(terms, extra...), nil
}

// ReplayCommit applies one journaled commit during write-ahead-log recovery.
// When the pair has an outstanding proposal (its propose event was replayed
// through ProposeBatch) it behaves exactly as CommitLabelTerms and verifies
// the replayed draws match the journaled terms; when the proposal was folded
// into a compaction snapshot — the pair is merely available — the journaled
// terms are applied directly, reproducing the live commit bit-for-bit.
// Already-labelled pairs are idempotent no-ops. Every term must name the
// pair's stratum with a finite positive weight, as the live commit's did.
func (s *Sampler) ReplayCommit(pair int, label bool, terms []DrawTerm) error {
	if pair < 0 || pair >= s.str.N() {
		return fmt.Errorf("oasis: replay commit for pair %d outside pool of %d", pair, s.str.N())
	}
	if s.pairState(pair) < pairAvailable {
		return nil
	}
	if len(terms) == 0 {
		return fmt.Errorf("oasis: replay commit for pair %d carries no draw terms", pair)
	}
	for _, t := range terms {
		if !s.isTermOf(pair, t) {
			return fmt.Errorf("oasis: replay commit for pair %d has invalid term %+v", pair, t)
		}
	}
	if s.pairState(pair) >= 0 {
		got, err := s.commitLabel(pair, label, true)
		if err != nil {
			return err
		}
		if len(got) != len(terms) {
			return fmt.Errorf("oasis: replay commit for pair %d applied %d terms, journal has %d", pair, len(got), len(terms))
		}
		for i := range got {
			if got[i] != terms[i] {
				return fmt.Errorf("oasis: replayed draw for pair %d diverged: %+v vs journalled %+v", pair, got[i], terms[i])
			}
		}
		return nil
	}
	// The proposal predates the snapshot this sampler was restored from, so
	// its pending entry is gone; the journaled terms carry the frozen weights.
	for _, t := range terms {
		s.fold(pair, t.Stratum, t.Weight, label)
	}
	s.markLabelled(pair, label)
	s.availCount[terms[0].Stratum]--
	s.availTotal--
	s.maskDirty = true
	return nil
}

// Release drops the outstanding proposal for a pair without committing a
// label, returning whether the pair was outstanding. The pair becomes
// proposable again; its queued draws are discarded, which does not bias the
// estimator (discarding draws independently of their labels preserves
// consistency). The session layer calls this when a proposal's lease
// expires.
func (s *Sampler) Release(pair int) bool {
	if s.pairState(pair) < 0 {
		return false
	}
	entry, _ := s.removePending(pair) // leaves the pair marked available
	s.availCount[entry.stratum]++
	s.availTotal++
	s.maskDirty = true
	return true
}

// Pending returns the pool indices of outstanding proposals (in no
// particular order).
func (s *Sampler) Pending() []int {
	out := make([]int, len(s.pendingSlab))
	for i, e := range s.pendingSlab {
		out[i] = int(e.pair)
	}
	return out
}

// LabelsCommitted returns the number of distinct pairs labelled, through
// CommitLabel or Run.
func (s *Sampler) LabelsCommitted() int { return len(s.committed) }

// CommittedLabels returns the committed labels as a fresh pair→label map,
// e.g. for snapshotting.
func (s *Sampler) CommittedLabels() map[int]bool {
	out := make(map[int]bool, len(s.committed))
	for _, pair := range s.committed {
		out[int(pair)] = s.slots[s.posOfPair[pair]].state == pairMatch
	}
	return out
}

// PosteriorMean returns the current per-stratum match-probability estimates
// π̂(t) (Eqn. 11) as a fresh slice.
func (s *Sampler) PosteriorMean() []float64 { return s.posteriorMean(nil) }

// Instrumental returns the current stratum distribution v(t) that the next
// draw follows (Eqn. 12) as a fresh slice.
func (s *Sampler) Instrumental() []float64 {
	return append([]float64(nil), s.instrumental()...)
}

// PendingDraw is one outstanding proposal in a SamplerState: the pair, the
// frozen draw that proposed it, and any re-draws queued while its label was
// in flight.
type PendingDraw struct {
	Pair    int        `json:"pair"`
	Stratum int        `json:"k"`
	Weight  float64    `json:"w"`
	Extra   []DrawTerm `json:"extra,omitempty"`
}

// SamplerState is a JSON-serialisable snapshot of a Sampler's complete
// mutable state: Beta posteriors, estimator sums, the random stream, the
// committed label cache, and the outstanding proposals with their frozen
// draw weights. Persisting the proposals is what makes the snapshot exact:
// a restored sampler continues the precise draw sequence of the live one —
// including re-draws of in-flight pairs — which the WAL's compaction relies
// on (tail events replay against the snapshot bit-for-bit). Restore a state
// only onto a Sampler built from the same pool with the same Options.
type SamplerState struct {
	// Core is the model: Beta posteriors, initial estimates, estimator sums
	// and the random stream.
	Core    *modelState   `json:"core"`
	Labels  map[int]bool  `json:"labels,omitempty"`
	Pending []PendingDraw `json:"pending,omitempty"`
}

// State captures the sampler's mutable state for persistence.
func (s *Sampler) State() *SamplerState {
	st := &SamplerState{Core: s.modelSnapshot(), Labels: s.CommittedLabels()}
	for _, e := range s.pendingSlab {
		st.Pending = append(st.Pending, PendingDraw{
			Pair: int(e.pair), Stratum: int(e.stratum), Weight: e.weight,
			Extra: append([]DrawTerm(nil), s.extraDraws[int(e.pair)]...),
		})
	}
	return st
}

// RestoreState overwrites the sampler's mutable state from a snapshot taken
// on a sampler with the same pool and Options, including its outstanding
// proposals. The caller decides what to do with the restored proposals: the
// session layer re-leases them so the WAL tail replays against the exact
// availability, then the WAL boot barrier releases every one still
// outstanding (the restart contract; see Release).
func (s *Sampler) RestoreState(st *SamplerState) error {
	if st == nil || st.Core == nil {
		return errors.New("oasis: nil sampler state")
	}
	for pair := range st.Labels {
		if pair < 0 || pair >= s.str.N() {
			return fmt.Errorf("oasis: snapshot label for pair %d outside pool of %d", pair, s.str.N())
		}
	}
	seen := make(map[int]bool, len(st.Pending))
	for _, p := range st.Pending {
		if p.Pair < 0 || p.Pair >= s.str.N() {
			return fmt.Errorf("oasis: snapshot proposal for pair %d outside pool of %d", p.Pair, s.str.N())
		}
		if _, labelled := st.Labels[p.Pair]; labelled || seen[p.Pair] {
			return fmt.Errorf("oasis: snapshot proposal for pair %d clashes with its label state", p.Pair)
		}
		seen[p.Pair] = true
		if !s.isTermOf(p.Pair, DrawTerm{Stratum: p.Stratum, Weight: p.Weight}) {
			return fmt.Errorf("oasis: snapshot proposal for pair %d has invalid draw {k:%d w:%v}", p.Pair, p.Stratum, p.Weight)
		}
		for _, e := range p.Extra {
			if !s.isTermOf(p.Pair, e) {
				return fmt.Errorf("oasis: snapshot proposal for pair %d has invalid re-draw %+v", p.Pair, e)
			}
		}
	}
	if err := s.restoreModel(st.Core); err != nil {
		return err
	}
	// Rebuild the label store and the proposability accounting, which are
	// derived from (labels, pending), so the restored sampler proposes
	// exactly what the snapshotted one would have.
	s.resetAvailability(st.Labels)
	for _, p := range st.Pending {
		s.propose(int(s.posOfPair[p.Pair]), p.Stratum, p.Weight)
		for _, e := range p.Extra {
			s.queueExtra(p.Pair, e)
		}
	}
	return nil
}

// Method is one of the paper's baseline evaluation methods (Passive,
// Stratified or IS), driven by the same loop as Sampler.Run.
type Method struct {
	inner sampler.Method
}

// Name returns the method's display name.
func (m *Method) Name() string { return m.inner.Name() }

// Estimate returns the method's current F̂.
func (m *Method) Estimate() float64 { return m.inner.Estimate() }

// Run draws with replacement until `budget` distinct pairs are labelled,
// asking the oracle once per pair. With no hook, the only error sampler.Run
// can return is a stall at its draw cap, which leaves LabelsConsumed below
// budget.
func (m *Method) Run(o OracleFunc, budget int) (*Result, error) {
	if budget <= 0 {
		return nil, errBudget
	}
	labels, draws, _ := sampler.Run(m.inner, o, budget, nil)
	return &Result{
		FMeasure:       m.Estimate(),
		LabelsConsumed: labels,
		Iterations:     draws,
	}, nil
}

// NewPassiveSampler returns the passive (uniform) baseline method.
func NewPassiveSampler(p *Pool, opts Options) (*Method, error) {
	opts = opts.WithDefaults()
	return &Method{inner: sampler.NewPassive(p.inner, opts.Alpha, rng.New(opts.Seed))}, nil
}

// NewStratifiedSampler returns the proportional stratified baseline of
// Druck & McCallum as configured in the paper's §6.2 (CSF strata, K = 30 by
// default).
func NewStratifiedSampler(p *Pool, opts Options) (*Method, error) {
	opts = opts.WithDefaults()
	s, err := strata.CSF(p.inner, opts.Strata, opts.StrataBins)
	if err != nil {
		return nil, err
	}
	m, err := sampler.NewStratified(p.inner, s, opts.Alpha, rng.New(opts.Seed))
	if err != nil {
		return nil, err
	}
	return &Method{inner: m}, nil
}

// NewISSampler returns the static importance-sampling baseline of Sawade et
// al.: a fixed instrumental distribution computed once from the scores.
func NewISSampler(p *Pool, opts Options) (*Method, error) {
	opts = opts.WithDefaults()
	m, err := sampler.NewIS(p.inner, sampler.ISConfig{
		Alpha:   opts.Alpha,
		Epsilon: opts.Epsilon,
	}, rng.New(opts.Seed))
	if err != nil {
		return nil, err
	}
	return &Method{inner: m}, nil
}
