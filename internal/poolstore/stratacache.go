package poolstore

import (
	"context"

	"oasis/internal/trace"
)

// The strata cache: a stratification is a pure function of (pool columns,
// strata options), and the columns are immutable and content-addressed, so
// the store memoises stratifications per (pool, options) — N sessions over
// one pool stratify once instead of N times. The cached value is opaque to
// this package (the session layer stores an *oasis.Stratification); keeping
// it `any` keeps poolstore free of a dependency on the sampling layers above
// it.

// StrataKey identifies one stratification of a pool: every option that the
// computation reads must appear here, or two sessions with different
// options would share one (wrong) stratification. K and Bins are the
// post-clamp values (the session layer clamps them to the pool size);
// Calibrated and Threshold determine the probability transform CSF bins.
type StrataKey struct {
	Stratifier int
	K          int
	Bins       int
	Calibrated bool
	Threshold  float64
}

// Strata returns the cached stratification of pool id under key, computing
// and caching it on a miss. compute returns the value and its resident size
// in bytes (counted against the memory budget). The caller must hold a live
// Acquire reference to id for the whole call — the reference is what keeps
// the entry (and the columns compute reads) alive — and must treat the
// returned value as immutable, like the columns themselves.
//
// Racing calls for the same pool serialise on a per-entry lock, so the
// computation runs once; calls for different pools do not contend.
func (s *Store) Strata(id string, key StrataKey, compute func() (value any, bytes int64, err error)) (any, error) {
	v, _, err := s.strataLookup(id, key, compute)
	return v, err
}

// StrataCtx is Strata with request context: when ctx carries a trace
// (internal/trace), the lookup is recorded as a span annotated hit or miss,
// so the cost of a cold stratification is visible on the request that paid
// it.
func (s *Store) StrataCtx(ctx context.Context, id string, key StrataKey, compute func() (value any, bytes int64, err error)) (any, error) {
	tr := trace.FromContext(ctx)
	sp := tr.Start("pool", "pool.strata")
	v, hit, err := s.strataLookup(id, key, compute)
	if tr != nil {
		if hit {
			sp.Attr("cache", "hit")
		} else {
			sp.Attr("cache", "miss")
		}
	}
	sp.End()
	return v, err
}

// strataLookup implements Strata, reporting whether the value came from the
// cache.
func (s *Store) strataLookup(id string, key StrataKey, compute func() (value any, bytes int64, err error)) (_ any, hit bool, err error) {
	s.mu.Lock()
	e, ok := s.pools[id]
	if ok && e.pool != nil {
		if v, cached := e.strata[key]; cached {
			s.strataHits++
			e.lastUsed = s.now()
			s.mu.Unlock()
			return v, true, nil
		}
	}
	s.mu.Unlock()
	if !ok {
		return nil, false, ErrNotFound
	}

	e.strataMu.Lock()
	defer e.strataMu.Unlock()
	// Re-check under the entry lock: a predecessor may have computed it.
	s.mu.Lock()
	if cur, curOK := s.pools[id]; !curOK || cur != e {
		// Removed meanwhile — the caller's reference should have prevented
		// this, but fail cleanly rather than cache onto a dead entry.
		s.mu.Unlock()
		return nil, false, ErrNotFound
	}
	if v, cached := e.strata[key]; cached {
		s.strataHits++
		e.lastUsed = s.now()
		s.mu.Unlock()
		return v, true, nil
	}
	s.mu.Unlock()

	v, cost, err := compute() // slow: O(N) passes for CSF, a sort for equal-size — no store-wide lock held
	if err != nil {
		return nil, false, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, curOK := s.pools[id]; !curOK || cur != e {
		return v, false, nil // entry replaced under us: hand back the value uncached
	}
	if e.pool == nil {
		// Columns were evicted mid-compute (refs hit zero on another path):
		// the value is still correct — it was computed from the immutable
		// columns — but caching it would leak past the eviction, so don't.
		return v, false, nil
	}
	if e.strata == nil {
		e.strata = make(map[StrataKey]any)
	}
	e.strata[key] = v
	e.strataBytes += cost
	e.lastUsed = s.now()
	s.strataMisses++
	s.enforceBudgetLocked()
	return v, false, nil
}
