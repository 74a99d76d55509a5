package oasis_test

// Tests for the rejection-free ProposeBatch contract: exact-size batches
// while the proposable supply lasts, typed exhaustion, deterministic
// continuation through State/RestoreState (the proposal engine's caches are
// a pure function of the snapshotted state), and lease bookkeeping.

import (
	"errors"
	"math"
	"testing"

	"oasis"
)

func mustSampler(t *testing.T, n int, opts oasis.Options) (*oasis.Sampler, []bool) {
	t.Helper()
	scores, preds, truth, _ := syntheticScores(n, 31)
	p, err := oasis.NewPool(scores, preds, oasis.CalibratedScores)
	if err != nil {
		t.Fatal(err)
	}
	s, err := oasis.NewSampler(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, truth
}

// TestRestoreContinuesProposalsExactly: a sampler restored from a snapshot
// proposes the exact same batches as the live sampler it was taken from —
// the cached instrumental distribution and the proposability accounting are
// rebuilt, not persisted, so they must be pure functions of the snapshot.
func TestRestoreContinuesProposalsExactly(t *testing.T) {
	opts := oasis.Options{Strata: 20, Seed: 17}
	live, truth := mustSampler(t, 4000, opts)

	commitBatch := func(s *oasis.Sampler, pairs []int) {
		t.Helper()
		for _, pair := range pairs {
			if err := s.CommitLabel(pair, truth[pair]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := 0; round < 30; round++ {
		pairs, err := live.ProposeBatch(8)
		if err != nil {
			t.Fatal(err)
		}
		commitBatch(live, pairs)
	}

	restored, _ := mustSampler(t, 4000, opts)
	if err := restored.RestoreState(live.State()); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 20; round++ {
		b1, err1 := live.ProposeBatch(8)
		b2, err2 := restored.ProposeBatch(8)
		if err1 != nil || err2 != nil {
			t.Fatalf("round %d: errors %v / %v", round, err1, err2)
		}
		if len(b1) != len(b2) {
			t.Fatalf("round %d: batch sizes %d vs %d", round, len(b1), len(b2))
		}
		for i := range b1 {
			if b1[i] != b2[i] {
				t.Fatalf("round %d: batches diverge at %d: %d vs %d", round, i, b1[i], b2[i])
			}
		}
		commitBatch(live, b1)
		commitBatch(restored, b2)
		g1, g2 := live.Estimate(), restored.Estimate()
		if g1 != g2 && !(math.IsNaN(g1) && math.IsNaN(g2)) {
			t.Fatalf("round %d: estimates diverge: %v vs %v", round, g1, g2)
		}
	}
}

// TestRestoreRejectsOutOfRangeLabels: a corrupted snapshot whose label map
// points outside the pool must be a clean error, not an index panic while
// rebuilding the proposability accounting (oasis-server restores snapshots
// from disk at startup).
func TestRestoreRejectsOutOfRangeLabels(t *testing.T) {
	s, _ := mustSampler(t, 50, oasis.Options{Strata: 4, Seed: 1})
	st := s.State()
	st.Labels = map[int]bool{999999: true}
	if err := s.RestoreState(st); err == nil {
		t.Fatal("restore accepted a label for a pair outside the pool")
	}
	st.Labels = map[int]bool{-3: false}
	if err := s.RestoreState(st); err == nil {
		t.Fatal("restore accepted a negative pair id")
	}
	// The sampler must still be usable after the rejected restores.
	if pairs, err := s.ProposeBatch(5); err != nil || len(pairs) != 5 {
		t.Fatalf("sampler unusable after rejected restore: %d pairs, err %v", len(pairs), err)
	}
}

// TestProposeBatchExhaustion checks the typed-exhaustion contract on a tiny
// pool: the partial batch comes back with ErrExhausted, released pairs
// return to the supply, and a fully labelled pool is terminal.
func TestProposeBatchExhaustion(t *testing.T) {
	s, truth := mustSampler(t, 30, oasis.Options{Strata: 4, Seed: 3})

	pairs, err := s.ProposeBatch(50)
	if !errors.Is(err, oasis.ErrExhausted) {
		t.Fatalf("over-sized batch: err = %v, want ErrExhausted", err)
	}
	if len(pairs) != 30 {
		t.Fatalf("got %d proposals of 30-pair pool, want all 30", len(pairs))
	}
	seen := map[int]bool{}
	for _, pair := range pairs {
		if seen[pair] {
			t.Fatalf("pair %d proposed twice in one batch", pair)
		}
		seen[pair] = true
	}

	// Nothing proposable: empty batch + typed error.
	if extra, err := s.ProposeBatch(1); !errors.Is(err, oasis.ErrExhausted) || len(extra) != 0 {
		t.Fatalf("exhausted propose: %v pairs, err %v", extra, err)
	}

	// Releasing returns supply, exactly that much.
	for _, pair := range pairs[:5] {
		if !s.Release(pair) {
			t.Fatalf("release of outstanding pair %d failed", pair)
		}
	}
	again, err := s.ProposeBatch(10)
	if !errors.Is(err, oasis.ErrExhausted) {
		t.Fatalf("after partial release: err = %v, want ErrExhausted", err)
	}
	if len(again) != 5 {
		t.Fatalf("after releasing 5, re-proposed %d pairs, want 5", len(again))
	}

	// Commit everything; the pool is then terminally exhausted.
	for _, pair := range append(append([]int{}, pairs[5:]...), again...) {
		if err := s.CommitLabel(pair, truth[pair]); err != nil {
			t.Fatal(err)
		}
	}
	if s.LabelsCommitted() != 30 {
		t.Fatalf("labels committed = %d, want 30", s.LabelsCommitted())
	}
	if _, err := s.ProposeBatch(1); !errors.Is(err, oasis.ErrExhausted) {
		t.Fatalf("fully labelled pool: err = %v, want ErrExhausted", err)
	}
}

// TestProposeBatchExactSizeNearExhaustion drives the pool to 90%+ labelled —
// the regime where the seed implementation burned its draw cap and returned
// short batches — and checks the batch is still exactly the remaining
// supply, each pair distinct and fresh.
func TestProposeBatchExactSizeNearExhaustion(t *testing.T) {
	const n = 600
	s, truth := mustSampler(t, n, oasis.Options{Strata: 10, Seed: 21})
	labelled := 0
	for labelled < 550 {
		pairs, err := s.ProposeBatch(50)
		if err != nil && !errors.Is(err, oasis.ErrExhausted) {
			t.Fatal(err)
		}
		for _, pair := range pairs {
			if err := s.CommitLabel(pair, truth[pair]); err != nil {
				t.Fatal(err)
			}
			labelled++
		}
	}
	remaining := n - labelled
	pairs, err := s.ProposeBatch(remaining)
	if err != nil {
		t.Fatalf("ProposeBatch(%d) with exactly that much supply: %v", remaining, err)
	}
	if len(pairs) != remaining {
		t.Fatalf("batch = %d pairs, want the full remaining supply %d", len(pairs), remaining)
	}
	seen := map[int]bool{}
	for _, pair := range pairs {
		if seen[pair] {
			t.Fatalf("pair %d proposed twice", pair)
		}
		seen[pair] = true
		if err := s.CommitLabel(pair, truth[pair]); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.LabelsCommitted(); got != n {
		t.Fatalf("labels committed = %d, want %d", got, n)
	}
	if f := s.Estimate(); math.IsNaN(f) || f < 0 || f > 1 {
		t.Fatalf("estimate after full labelling = %v", f)
	}
}

// TestCommitLabelLifecycle covers the per-pair state machine: commit of an
// unproposed or released pair is rejected, duplicate commits are no-ops, and
// Pending tracks the outstanding set.
func TestCommitLabelLifecycle(t *testing.T) {
	s, _ := mustSampler(t, 500, oasis.Options{Strata: 8, Seed: 2})
	if err := s.CommitLabel(3, true); !errors.Is(err, oasis.ErrNotProposed) {
		t.Fatalf("commit of unproposed pair: %v, want ErrNotProposed", err)
	}
	pairs, err := s.ProposeBatch(6)
	if err != nil || len(pairs) != 6 {
		t.Fatalf("propose: %d pairs, err %v", len(pairs), err)
	}
	if got := len(s.Pending()); got != 6 {
		t.Fatalf("pending = %d, want 6", got)
	}
	if !s.Release(pairs[0]) {
		t.Fatal("release of outstanding pair failed")
	}
	if s.Release(pairs[0]) {
		t.Fatal("double release succeeded")
	}
	if err := s.CommitLabel(pairs[0], true); !errors.Is(err, oasis.ErrNotProposed) {
		t.Fatalf("commit after release: %v, want ErrNotProposed", err)
	}
	if err := s.CommitLabel(pairs[1], true); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitLabel(pairs[1], false); err != nil {
		t.Fatalf("duplicate commit: %v, want nil no-op", err)
	}
	if got := s.LabelsCommitted(); got != 1 {
		t.Fatalf("labels committed = %d, want 1 (duplicate must not double-count)", got)
	}
	if got := len(s.Pending()); got != 4 {
		t.Fatalf("pending = %d, want 4", got)
	}
}

// TestUniformConfigurationIsPassive: with one stratum and ε = 1, Eqn. (12)
// gives v = ω = 1, so every with-replacement draw weighs exactly 1 and the
// AIS estimate is the plain Eqn. (1) estimator of the paper's Passive
// baseline. The one other weight is direct mode's: after 32 consecutive
// draws that yield no fresh proposal, ProposeBatch picks uniformly among the
// avail proposable pairs, a draw of probability 1/avail instead of 1/N,
// weighted avail/N. Labelling to exhaustion must see no third weight.
func TestUniformConfigurationIsPassive(t *testing.T) {
	const n = 4000
	scores, preds, truth, _ := syntheticScores(n, 37)
	for _, tc := range []struct {
		name string
		kind oasis.ScoreKind
	}{
		{"calibrated", oasis.CalibratedScores},
		{"uncalibrated", oasis.UncalibratedScores},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := oasis.NewPool(scores, preds, tc.kind)
			if err != nil {
				t.Fatal(err)
			}
			s, err := oasis.NewSampler(p, oasis.Options{Strata: 1, Epsilon: 1, Seed: 41})
			if err != nil {
				t.Fatal(err)
			}
			firstDirect := 0 // label count at the first direct-mode proposal
			for {
				labels := s.LabelsCommitted()
				batch, err := s.ProposeBatch(1)
				if errors.Is(err, oasis.ErrExhausted) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				terms, err := s.CommitLabelTerms(batch[0], truth[batch[0]])
				if err != nil || len(terms) != 1 || terms[0].Stratum != 0 {
					t.Fatalf("label %d: terms %+v, err %v; want one stratum-0 term", labels, terms, err)
				}
				switch w, direct := terms[0].Weight, float64(n-labels)/n; {
				case w == 1:
				case w == direct:
					if firstDirect == 0 {
						firstDirect = labels + 1
					}
				default:
					t.Fatalf("label %d: term weight %v, want 1 or avail/N = %v", labels, w, direct)
				}
				if h := s.Health(); firstDirect == 0 && h.ESSRatio != 1 {
					t.Fatalf("label %d: ESS ratio %v before any direct-mode proposal, want exactly 1", labels, h.ESSRatio)
				}
			}
			if got := s.LabelsCommitted(); got != n {
				t.Fatalf("exhausted after %d labels, want %d", got, n)
			}
			if firstDirect == 0 {
				t.Fatal("no direct-mode proposal, so its weight went unchecked")
			}
			t.Logf("first direct-mode proposal at label %d of %d", firstDirect, n)
		})
	}
}
