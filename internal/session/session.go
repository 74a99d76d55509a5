// Package session keeps many concurrent OASIS evaluations alive behind a
// propose/commit protocol, turning the library's synchronous sampling loop
// into a long-lived labelling service. Every session drives one
// oasis.Sampler; the paper's Passive baseline is the configuration with one
// stratum and ε = 1 (see MethodOASIS).
//
// The paper's oracle is a costly external resource — a crowd — which in
// deployment answers asynchronously and in batches. A Session therefore
// splits Algorithm 3's iteration in two: Propose(n) draws a batch of n
// distinct unlabelled pairs from the current instrumental distribution and
// leases them to the caller, and Commit(pair, label) folds answers back into
// the Beta posteriors and the AIS estimate as they arrive, in any order.
// Leases expire: a proposal whose label never arrives returns to the
// proposable set after the session's lease TTL, so crashed or slow labellers
// cannot strand pairs. Sessions snapshot to JSON and restore losslessly; the
// write-ahead log (internal/wal) folds those snapshots and its event tail
// together so a server restart does not lose purchased labels.
//
// A thread-safe Manager owns named sessions; the HTTP layer in
// internal/server exposes it as a JSON API.
package session

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"oasis"
	"oasis/internal/diag"
	"oasis/internal/pool"
	"oasis/internal/poolstore"
	"oasis/internal/trace"
)

// MethodKind names the evaluation method backing a session.
type MethodKind string

// MethodOASIS is the adaptive importance sampler, the one method a session
// serves. The paper's Passive baseline is its special case with one stratum
// and ε = 1 (Options{Strata: 1, Epsilon: 1}): every with-replacement draw
// then weighs exactly 1 and the AIS estimate is the plain Eqn. (1)
// estimator.
const MethodOASIS MethodKind = "oasis"

// Errors returned by sessions.
var (
	// ErrNotProposed is returned by Commit for a pair with no live lease:
	// never proposed, or proposed but expired and returned to the pool.
	ErrNotProposed = errors.New("session: pair has no live proposal (never proposed, or lease expired)")
	// ErrBudgetExhausted is returned by Propose when no fresh proposal can
	// ever be made again: the label budget is fully consumed by committed
	// labels, or every pair in the pool is already labelled. Pollers treat
	// it as the terminal signal.
	ErrBudgetExhausted = errors.New("session: label budget exhausted")
	// ErrPoolUnavailable marks a config whose referenced pool could not be
	// resolved from the store (missing, truncated, or failing content
	// verification). WAL replay treats it specially: a replayed create whose
	// pool is gone is only fatal if the session is never deleted later in
	// the log — a pool legitimately removed after its last session was
	// deleted must not brick the boot.
	ErrPoolUnavailable = errors.New("session: referenced pool unavailable")
	// errPassiveRemoved refuses the passive session method, which no longer
	// exists. WAL replay parks a journaled passive session exactly like one
	// whose pool is gone: its uniform with-replacement pair stream differs
	// from the one-stratum OASIS sampler's, so it cannot be replayed onto it.
	errPassiveRemoved = errors.New(`session: method "passive" was removed (commit 7f1a01c is the last build that serves passive sessions); ` +
		`for the uniform baseline, create an OASIS session with "options": {"Strata": 1, "Epsilon": 1}`)
)

// Config describes a new session: the evaluation pool (a content-addressed
// reference into the pool store, or inline parallel score and prediction
// slices as in oasis.NewPool), the method and its options, an optional label
// budget, and the proposal lease TTL.
type Config struct {
	// ID names the session; empty means the Manager generates one.
	ID string `json:"id,omitempty"`
	// Method names the evaluation method: empty or MethodOASIS.
	Method MethodKind `json:"method,omitempty"`
	// PoolID references a pool in the manager's content-addressed store
	// (internal/poolstore): all sessions with the same PoolID share one
	// read-only copy of the columns, and durable create records carry only
	// this hash. Exclusive with inline Scores/Preds.
	PoolID string `json:"poolId,omitempty"`
	// Scores and Preds define the pool inline, exactly as in oasis.NewPool.
	// When the manager has a pool store attached, inline pools are interned
	// into it on Create and the config is rewritten to the PoolID form.
	Scores []float64 `json:"scores,omitempty"`
	Preds  []bool    `json:"preds,omitempty"`
	// Calibrated marks Scores as probabilities (oasis.CalibratedScores).
	Calibrated bool `json:"calibrated,omitempty"`
	// Threshold is the uncalibrated-score decision threshold τ.
	Threshold float64 `json:"threshold,omitempty"`
	// Options configures the sampler (alpha, strata, seed, ...).
	Options oasis.Options `json:"options"`
	// Budget caps distinct labels committed; 0 means unlimited.
	Budget int `json:"budget,omitempty"`
	// LeaseTTL is how long a proposal stays leased before returning to the
	// proposable set; 0 means the Manager's default.
	LeaseTTL time.Duration `json:"leaseTTL,omitempty"`
}

// Proposal is one leased pair: label it and POST the answer back before the
// lease expires.
type Proposal struct {
	Pair    int       `json:"pair"`
	Expires time.Time `json:"expires"`
}

// Status summarises a session for the estimate/introspection endpoints.
type Status struct {
	ID     string     `json:"id"`
	Method MethodKind `json:"method"`
	// PoolSize is the number of pairs in the pool; PoolID is the content
	// address of the shared stored pool (empty for inline pools).
	PoolSize int    `json:"poolSize"`
	PoolID   string `json:"poolId,omitempty"`
	// Estimate is the current F̂, nil while undefined (NaN is not
	// representable in JSON).
	Estimate *float64 `json:"estimate,omitempty"`
	// InitialEstimate is the score-based F̂(0) of Algorithm 2.
	InitialEstimate *float64 `json:"initialEstimate,omitempty"`
	// LabelsCommitted counts distinct pairs labelled so far.
	LabelsCommitted int `json:"labelsCommitted"`
	// PendingProposals counts live leases.
	PendingProposals int `json:"pendingProposals"`
	// Budget is the label budget (0 = unlimited) and Remaining what is left
	// of it (-1 = unlimited).
	Budget    int `json:"budget"`
	Remaining int `json:"remaining"`
}

// Session is one live evaluation: a sampler over a pool plus lease
// bookkeeping. All methods are safe for concurrent use.
type Session struct {
	mu sync.Mutex

	id       string
	cfg      Config
	sampler  *oasis.Sampler
	leases   map[int]time.Time
	leaseTTL time.Duration
	now      func() time.Time

	// poolSize is the pool's pair count (cfg.Scores may be empty when the
	// session references a stored pool); poolRelease returns the session's
	// reference on the shared pool, nil for inline pools.
	poolSize    int
	poolRelease func()

	// jrn shares the manager's durable journal; lastLSN is the LSN of the
	// session's most recent journaled event (the snapshot watermark replay
	// skips up to).
	jrn     *journalHolder
	lastLSN uint64

	// met points at the per-shard metrics of the owning manager's shard,
	// nil when metrics are disabled.
	met *ShardMetrics

	// diag tracks the session's convergence trajectory and degeneracy alarm
	// state, recorded on every commit batch (fresh and replayed alike, so
	// the series survives WAL recovery bit-for-bit). diagLog receives the
	// one-line health transition messages; nil means no logging.
	diag    *diag.Tracker
	diagLog func(format string, args ...any)
}

// newSession builds a session from a validated config, resolving the pool
// either from the content-addressed store (Config.PoolID — the session takes
// one reference on the shared pool, returned by releasePool) or from the
// inline columns.
func newSession(ctx context.Context, cfg Config, defaultTTL time.Duration, now func() time.Time, pools *poolstore.Store, dg DiagOptions) (_ *Session, err error) {
	if err := checkMethod(cfg.Method); err != nil {
		return nil, err
	}
	cfg.Method = MethodOASIS
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = defaultTTL
	}
	p, poolSize, release, err := resolvePool(ctx, cfg, pools)
	if err != nil {
		return nil, err
	}
	defer func() {
		// Every error below abandons the session: return the pool reference.
		if err != nil && release != nil {
			release()
		}
	}()
	// The stratifier allocates per requested stratum/bin; clamp both to the
	// pool size so an absurd client (or fuzzed journal) config cannot force a
	// huge allocation. More strata than pairs is meaningless anyway — empty
	// strata are dropped.
	if cfg.Options.Strata > poolSize {
		cfg.Options.Strata = poolSize
	}
	if cfg.Options.StrataBins > poolSize {
		cfg.Options.StrataBins = poolSize
	}
	smp, err := newOASISSampler(ctx, p, cfg, pools)
	if err != nil {
		return nil, err
	}
	return &Session{
		id:          cfg.ID,
		cfg:         cfg,
		sampler:     smp,
		leases:      make(map[int]time.Time),
		leaseTTL:    cfg.LeaseTTL,
		now:         now,
		poolSize:    poolSize,
		poolRelease: release,
		diag:        diag.NewTracker(dg.SeriesCapacity, dg.Thresholds),
		diagLog:     dg.Logf,
	}, nil
}

// checkMethod refuses a method this build does not serve.
func checkMethod(m MethodKind) error {
	switch m {
	case "", MethodOASIS:
		return nil
	case "passive":
		return errPassiveRemoved
	}
	return fmt.Errorf("session: unknown method %q", m)
}

// newOASISSampler builds the session's OASIS sampler. For a store-resolved
// pool the stratification (a few linear passes for CSF, a sort for
// equal-size strata) is memoised in the pool store under the session's pool
// reference, so N sessions over one pool stratify once; the cached
// stratification is bit-identical to a fresh one (it is a pure function of
// the immutable columns and the key below), so sampling sequences do not
// change. Inline pools stratify privately as before.
//
// The cache key must carry every input the stratification reads: the
// stratifier rule and its K/bins (post-clamp — the caller already clamped
// them to the pool size), and the probability mapping (calibration kind and
// threshold) that shapes the per-stratum mean probability-scores.
func newOASISSampler(ctx context.Context, p *oasis.Pool, cfg Config, pools *poolstore.Store) (*oasis.Sampler, error) {
	if cfg.PoolID == "" || pools == nil {
		return oasis.NewSampler(p, cfg.Options)
	}
	opts := cfg.Options.WithDefaults()
	key := poolstore.StrataKey{
		Stratifier: int(opts.Stratifier),
		K:          opts.Strata,
		Bins:       opts.StrataBins,
		Calibrated: cfg.Calibrated,
		Threshold:  cfg.Threshold,
	}
	v, err := pools.StrataCtx(ctx, cfg.PoolID, key, func() (any, int64, error) {
		st, err := oasis.Stratify(p, opts)
		if err != nil {
			return nil, 0, err
		}
		return st, st.MemBytes(), nil
	})
	if err != nil {
		return nil, err
	}
	return oasis.NewSamplerStratified(p, opts, v.(*oasis.Stratification))
}

// resolvePool materialises a config's evaluation pool. A PoolID resolves
// through the store to the shared, zero-copy columns (plus a release to
// return the reference); inline columns build a private copying pool exactly
// as before.
func resolvePool(ctx context.Context, cfg Config, pools *poolstore.Store) (p *oasis.Pool, poolSize int, release func(), err error) {
	kind := oasis.UncalibratedScores
	if cfg.Calibrated {
		kind = oasis.CalibratedScores
	}
	if cfg.PoolID != "" {
		if len(cfg.Scores) > 0 || len(cfg.Preds) > 0 {
			return nil, 0, nil, fmt.Errorf("session: config names pool %q and carries inline scores; pick one", cfg.PoolID)
		}
		if pools == nil {
			return nil, 0, nil, fmt.Errorf("session: config references pool %q but no pool store is attached", cfg.PoolID)
		}
		shared, err := pools.AcquireCtx(ctx, cfg.PoolID)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("%w: %v", ErrPoolUnavailable, err)
		}
		// Alias the store's columns instead of copying them: the per-session
		// pool struct is a handful of slice headers over the one shared copy.
		// Calibration kind and threshold stay per-session. The store checked
		// the columns when it took or loaded them, so nothing re-validates.
		inner := &pool.Pool{
			Scores:        shared.Scores,
			Preds:         shared.Preds,
			Probabilistic: kind == oasis.CalibratedScores,
			Threshold:     cfg.Threshold,
		}
		id := shared.ID
		return oasis.WrapPool(inner), shared.N(), func() { pools.Release(id) }, nil
	}
	op, err := oasis.NewPoolThreshold(cfg.Scores, cfg.Preds, kind, cfg.Threshold)
	if err != nil {
		return nil, 0, nil, err
	}
	return op, len(cfg.Scores), nil, nil
}

// releasePool returns the session's reference on the shared pool (a no-op
// for inline pools, idempotent otherwise). The manager calls it whenever a
// session leaves the session map — delete, replayed delete, or an abandoned
// create/restore.
func (s *Session) releasePool() {
	s.mu.Lock()
	release := s.poolRelease
	s.poolRelease = nil
	s.mu.Unlock()
	if release != nil {
		release()
	}
}

// PoolSize returns the number of pairs in the session's pool.
func (s *Session) PoolSize() int { return s.poolSize }

// ID returns the session's name.
func (s *Session) ID() string { return s.id }

// expireLocked releases every lease past its deadline, returning those pairs
// to the proposable set, and journals the releases so recovery replays
// exactly the expiries that happened (replay never expires by wall clock).
// Callers hold s.mu. An append failure here is swallowed: it is sticky, so
// the write paths refuse service before anything further is acknowledged.
func (s *Session) expireLocked(now time.Time) {
	var expired []int
	for pair, deadline := range s.leases {
		if now.After(deadline) {
			delete(s.leases, pair)
			s.sampler.Release(pair)
			expired = append(expired, pair)
		}
	}
	if len(expired) > 0 {
		_ = s.journalLocked(&Event{Type: EventRelease, Pairs: expired})
		if s.met != nil {
			s.met.LeaseExpiries.Add(uint64(len(expired)))
		}
	}
}

// remainingLocked returns how many fresh proposals the budget still allows
// (live leases count against it), or -1 when unlimited. Callers hold s.mu.
func (s *Session) remainingLocked() int {
	if s.cfg.Budget <= 0 {
		return -1
	}
	r := s.cfg.Budget - s.sampler.LabelsCommitted() - len(s.leases)
	if r < 0 {
		r = 0
	}
	return r
}

// Propose leases up to n distinct unlabelled pairs drawn from the method's
// current instrumental distribution. The batch may be shorter than n when
// the budget or the pool is nearly exhausted, and empty when every
// remaining pair is already leased to other callers (retry later). It
// returns ErrBudgetExhausted once no fresh proposal can ever be made —
// budget fully committed, or the whole pool labelled — so pollers can
// terminate.
func (s *Session) Propose(n int) ([]Proposal, error) {
	return s.ProposeCtx(context.Background(), n)
}

// samplerSpan wraps one sampler call in a span (when ctx carries a trace)
// and attaches the dirty-flag cache rebuilds the call triggered as a
// retroactive child span. The returned func must be called when the sampler
// work is done; it is a no-op for unsampled requests.
func (s *Session) samplerSpan(tr *trace.Trace, name string) func() {
	if tr == nil {
		return func() {}
	}
	sp := tr.Start("sampler", name)
	count0, nanos0 := s.sampler.RebuildStats()
	return func() {
		if count, nanos := s.sampler.RebuildStats(); count > count0 {
			tr.AddSpan("sampler", "sampler.rebuild", time.Duration(nanos-nanos0)).
				AttrInt("rebuilds", int64(count-count0))
		}
		sp.End()
	}
}

// ProposeCtx is Propose with request context: when ctx carries a trace
// (internal/trace), the session records its lock wait, the sampler's draw
// and any dirty-flag cache rebuild as spans.
func (s *Session) ProposeCtx(ctx context.Context, n int) ([]Proposal, error) {
	if n <= 0 {
		return nil, errors.New("session: batch size must be positive")
	}
	tr := trace.FromContext(ctx)
	// Latency is measured on the real clock, not the injected test clock:
	// the injected one is for lease arithmetic, not durations.
	var start time.Time
	if s.met != nil {
		start = time.Now()
	}
	sp := tr.Start("session", "session.propose").AttrInt("n", int64(n))
	defer sp.End()
	lw := tr.Start("session", "lock.wait")
	s.mu.Lock()
	lw.End()
	defer s.mu.Unlock()
	// A caller that is already gone (client disconnect mid-request, observed
	// as context cancellation) gets its draws back before any are made:
	// proposing to nobody would lease pairs that can only expire. Checked
	// after the lock wait, which is where a disconnected request typically
	// spends its time under contention.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := s.journalSick(); err != nil {
		return nil, err
	}
	now := s.now()
	s.expireLocked(now)
	if s.sampler.LabelsCommitted() >= s.poolSize {
		return nil, ErrBudgetExhausted
	}
	if r := s.remainingLocked(); r >= 0 {
		if s.cfg.Budget-s.sampler.LabelsCommitted() <= 0 {
			return nil, ErrBudgetExhausted
		}
		if n > r {
			n = r
		}
		if n == 0 {
			// Budget left, but all of it is leased out right now.
			return []Proposal{}, nil
		}
	}
	endSampler := s.samplerSpan(tr, "sampler.propose")
	pairs, err := s.sampler.ProposeBatch(n)
	endSampler()
	switch {
	case errors.Is(err, oasis.ErrExhausted):
		// The proposable supply ran out mid-batch: lease whatever was drawn.
		// An empty result tells the caller every remaining pair is leased to
		// other workers right now (retry later); the fully-labelled terminal
		// case is caught by the pool check above on the next call.
	case err != nil:
		// Release any partially drawn batch so the pairs are not stranded
		// as pending-without-a-lease (unleased pairs never expire).
		for _, pair := range pairs {
			s.sampler.Release(pair)
		}
		return nil, err
	}
	if len(pairs) > 0 {
		// Journal the draws before leasing them out: the batch size and the
		// resulting pairs let recovery re-execute this exact ProposeBatch.
		if jerr := s.journalLocked(&Event{Type: EventPropose, N: n, Pairs: pairs, Trace: tr}); jerr != nil {
			// Unacknowledged draws return to the proposable set; the sticky
			// journal failure fail-stops the session from here on.
			for _, pair := range pairs {
				s.sampler.Release(pair)
			}
			return nil, jerr
		}
	}
	deadline := now.Add(s.leaseTTL)
	out := make([]Proposal, len(pairs))
	for i, pair := range pairs {
		s.leases[pair] = deadline
		out[i] = Proposal{Pair: pair, Expires: deadline}
	}
	if s.met != nil {
		s.met.ProposedPairs.Add(uint64(len(out)))
		s.met.ProposeSeconds.Observe(time.Since(start).Seconds())
	}
	return out, nil
}

// Commit applies a label to a leased pair. Late answers — after the lease
// expired and the pair returned to the pool — get ErrNotProposed;
// re-answers for an already-committed pair are idempotent no-ops. With a
// journal attached the label is durably appended before Commit returns.
func (s *Session) Commit(pair int, label bool) error {
	results, err := s.CommitBatch([]int{pair}, []bool{label})
	if err != nil {
		return err
	}
	if results[0] == Expired {
		return ErrNotProposed
	}
	return nil
}

// CommitResult is one answer's fate in a CommitBatch.
type CommitResult int

const (
	// Committed: a fresh label, folded into the posterior and estimate.
	Committed CommitResult = iota
	// Duplicate: the pair was already labelled; the re-answer is ignored
	// (the first label wins, mirroring the label cache of sampler.Run).
	Duplicate
	// Expired: no live lease — never proposed, or the lease lapsed and the
	// pair returned to the proposable set.
	Expired
)

// CommitBatch applies many labels in one critical section; the i-th result
// corresponds to the i-th input pair. With a journal attached the fresh
// labels — and the frozen draw terms they folded into the estimator — are
// appended as one durable event before CommitBatch returns; an append
// failure withholds the acknowledgement (non-nil error, nil results).
func (s *Session) CommitBatch(pairs []int, labels []bool) ([]CommitResult, error) {
	return s.CommitBatchCtx(context.Background(), pairs, labels)
}

// CommitBatchCtx is CommitBatch with request context: when ctx carries a
// trace, the session records its lock wait, the sampler's posterior folds
// (plus any cache rebuild they trigger) and the durable journal append as
// spans.
func (s *Session) CommitBatchCtx(ctx context.Context, pairs []int, labels []bool) ([]CommitResult, error) {
	tr := trace.FromContext(ctx)
	var start time.Time
	if s.met != nil {
		start = time.Now()
	}
	sp := tr.Start("session", "session.commit").AttrInt("labels", int64(len(pairs)))
	defer sp.End()
	lw := tr.Start("session", "lock.wait")
	s.mu.Lock()
	lw.End()
	defer s.mu.Unlock()
	// Bail out for an already-disconnected caller before folding anything:
	// past this point the batch commits atomically (labels are never half
	// acknowledged), so cancellation is only honored at the boundary.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := s.journalSick(); err != nil {
		return nil, err
	}
	s.expireLocked(s.now())
	var fresh []CommitRecord
	journaling := s.journaling()
	results := make([]CommitResult, len(pairs))
	endSampler := s.samplerSpan(tr, "sampler.commit")
	for i, pair := range pairs {
		terms, err := s.sampler.CommitLabelTerms(pair, labels[i])
		switch {
		case errors.Is(err, oasis.ErrNotProposed):
			results[i] = Expired
		case err != nil:
			endSampler()
			return nil, err
		case terms == nil:
			results[i] = Duplicate
		default:
			delete(s.leases, pair)
			results[i] = Committed
			if journaling {
				fresh = append(fresh, CommitRecord{Pair: pair, Label: labels[i], Terms: terms})
			}
		}
	}
	endSampler()
	var committed uint64
	for _, r := range results {
		if r == Committed {
			committed++
		}
	}
	// The diagnostics point's wall clock is journaled with the commit event,
	// so a WAL tail replay re-records the series byte-for-byte.
	wall := s.now().UnixNano()
	if len(fresh) > 0 {
		if err := s.journalLocked(&Event{Type: EventCommit, Commits: fresh, TS: wall, Trace: tr}); err != nil {
			return nil, err
		}
	}
	if committed > 0 {
		s.recordDiagLocked(tr, wall, false)
	}
	if s.met != nil {
		s.met.LabelsCommitted.Add(committed)
		s.met.CommitSeconds.Observe(time.Since(start).Seconds())
	}
	return results, nil
}

// recordDiagLocked folds one commit batch into the convergence diagnostics:
// a series point sampled from the estimator's health, and a re-evaluation
// of the degeneracy alarm. A state transition is logged once and, on a
// sampled request, stamped as a span attribute — except under replay, where
// the transition already happened (and was reported) in the original run.
// Callers hold s.mu.
func (s *Session) recordDiagLocked(tr *trace.Trace, wallNanos int64, replay bool) {
	if s.diag == nil {
		return
	}
	h := s.sampler.Health()
	labels := s.sampler.LabelsCommitted()
	prev := s.diag.State()
	state, changed := s.diag.Record(diag.Point{
		Labels:    labels,
		WallNanos: wallNanos,
		Estimate:  diag.Float(h.Estimate),
		Variance:  diag.Float(h.AsymptoticVariance),
		ESSRatio:  diag.Float(h.ESSRatio),
		Terms:     h.Terms,
	})
	if !changed || replay {
		return
	}
	if s.diagLog != nil {
		s.diagLog("session %s: sampler health %s -> %s (ess_ratio=%.4f, variance=%.4g, labels=%d)",
			s.id, prev, state, h.ESSRatio, h.AsymptoticVariance, labels)
	}
	if tr != nil {
		tr.AddSpan("session", "health.transition", 0).
			Attr("state", state.String()).
			Attr("from", prev.String())
	}
}

// Estimate returns the current F̂ (NaN while undefined).
func (s *Session) Estimate() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sampler.Estimate()
}

// Status reports the session's current state.
func (s *Session) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(s.now())
	st := Status{
		ID:               s.id,
		Method:           s.cfg.Method,
		PoolSize:         s.poolSize,
		PoolID:           s.cfg.PoolID,
		LabelsCommitted:  s.sampler.LabelsCommitted(),
		PendingProposals: len(s.leases),
		Budget:           s.cfg.Budget,
		Remaining:        s.remainingLocked(),
	}
	if f := s.sampler.Estimate(); !math.IsNaN(f) {
		st.Estimate = &f
	}
	f0 := s.sampler.InitialEstimate()
	st.InitialEstimate = &f0
	return st
}

// SamplerHealth is a read-only snapshot of a session's estimator health
// plus budget consumption, exported per session on /metrics.
type SamplerHealth struct {
	ID                 string
	Method             MethodKind
	Estimate           float64
	AsymptoticVariance float64
	ESS                float64
	ESSRatio           float64
	Terms              int
	LabelsCommitted    int
	PendingProposals   int
	Budget             int
	PoolSize           int
	// State is the degeneracy alarm state (ok/degraded/degenerate).
	State diag.HealthState
}

// SamplerHealth reports the session's estimator health. Unlike Status it
// never mutates state (no lease expiry, no journaling): it is safe for a
// scraper to call at any rate.
func (s *Session) SamplerHealth() SamplerHealth {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.sampler.Health()
	sh := SamplerHealth{
		ID:                 s.id,
		Method:             s.cfg.Method,
		Estimate:           h.Estimate,
		AsymptoticVariance: h.AsymptoticVariance,
		ESS:                h.ESS,
		ESSRatio:           h.ESSRatio,
		Terms:              h.Terms,
		LabelsCommitted:    s.sampler.LabelsCommitted(),
		PendingProposals:   len(s.leases),
		Budget:             s.cfg.Budget,
		PoolSize:           s.poolSize,
	}
	if s.diag != nil {
		sh.State = s.diag.State()
	}
	return sh
}

// Diagnostics is the full convergence-diagnostics payload of one session,
// served at GET /v1/sessions/{id}/diagnostics.
type Diagnostics struct {
	ID     string     `json:"id"`
	Method MethodKind `json:"method"`
	// State is the degeneracy alarm state: ok, degraded or degenerate.
	State string `json:"state"`
	// Thresholds are the effective alarm thresholds.
	Thresholds diag.Thresholds `json:"thresholds"`
	// LabelsCommitted and Terms mirror the newest estimator state.
	LabelsCommitted int        `json:"labelsCommitted"`
	Terms           int        `json:"terms"`
	Estimate        diag.Float `json:"estimate"`
	Variance        diag.Float `json:"variance"`
	ESSRatio        diag.Float `json:"essRatio"`
	// Series is the downsampled trajectory; SeriesSeen counts commit
	// batches offered to it and SeriesStride the current downsampling
	// stride (a power of two). MemBytes is the ring's fixed footprint.
	Series       []diag.Point `json:"series"`
	SeriesSeen   uint64       `json:"seriesSeen"`
	SeriesStride uint64       `json:"seriesStride"`
	MemBytes     int          `json:"memBytes"`
	// Strata carries the per-stratum weight diagnostics, one entry per
	// realised stratum.
	Strata []diag.StratumHealth `json:"strata,omitempty"`
}

// Diagnostics reports the session's convergence diagnostics. Like
// SamplerHealth it never expires leases or journals, so scrapers and the
// dashboard may call it at any rate while commits are in flight.
func (s *Session) Diagnostics() Diagnostics {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.sampler.Health()
	d := Diagnostics{
		ID:              s.id,
		Method:          s.cfg.Method,
		State:           diag.StateOK.String(),
		LabelsCommitted: s.sampler.LabelsCommitted(),
		Terms:           h.Terms,
		Estimate:        diag.Float(h.Estimate),
		Variance:        diag.Float(h.AsymptoticVariance),
		ESSRatio:        diag.Float(h.ESSRatio),
	}
	if s.diag != nil {
		d.State = s.diag.State().String()
		d.Thresholds = s.diag.Thresholds()
		d.Series = s.diag.Series().Points()
		d.SeriesSeen = s.diag.Series().Seen()
		d.SeriesStride = s.diag.Series().Stride()
		d.MemBytes = s.diag.MemBytes()
	}
	d.Strata = s.sampler.StratumDiagnostics()
	return d
}

// DiagMemBytes returns the fixed memory footprint of the session's
// diagnostics ring (0 when diagnostics are disabled).
func (s *Session) DiagMemBytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.diag == nil {
		return 0
	}
	return s.diag.MemBytes()
}
