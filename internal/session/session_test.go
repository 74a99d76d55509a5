package session

import (
	"encoding/json"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"oasis"
	"oasis/internal/rng"
)

// testPool builds a synthetic calibrated pool with ER-like imbalance:
// scores are Beta-shaped towards 0, truth is Bernoulli(score), predictions
// threshold at 0.5.
func testPool(n int, seed uint64) (scores []float64, preds []bool, truth []bool) {
	r := rng.New(seed)
	scores = make([]float64, n)
	preds = make([]bool, n)
	truth = make([]bool, n)
	for i := 0; i < n; i++ {
		u := r.Float64()
		scores[i] = u * u * u // mass near zero: imbalanced pool
		preds[i] = scores[i] >= 0.5
		truth[i] = r.Bernoulli(scores[i])
	}
	return scores, preds, truth
}

func trueF(alpha float64, preds, truth []bool) float64 {
	var tp, fp, fn float64
	for i := range preds {
		switch {
		case preds[i] && truth[i]:
			tp++
		case preds[i] && !truth[i]:
			fp++
		case !preds[i] && truth[i]:
			fn++
		}
	}
	return tp / (alpha*(tp+fp) + (1-alpha)*(tp+fn))
}

func newTestManager(now func() time.Time) *Manager {
	return NewManager(ManagerOptions{Now: now})
}

// TestProposeCommitMatchesRun checks the propose/commit protocol is the
// sequential algorithm, exactly: driving batches of one proposal with a
// deterministic oracle reproduces Sampler.Run bit-for-bit at the same seed.
func TestProposeCommitMatchesRun(t *testing.T) {
	scores, preds, truth := testPool(3000, 7)
	opts := oasis.Options{Strata: 20, Seed: 42}
	const budget = 150

	p1, err := oasis.NewPool(scores, preds, oasis.CalibratedScores)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := oasis.NewSampler(p1, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ref.Run(func(i int) bool { return truth[i] }, budget)
	if err != nil {
		t.Fatal(err)
	}

	m := newTestManager(nil)
	s, err := m.Create(Config{
		Scores: scores, Preds: preds, Calibrated: true, Options: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < budget; i++ {
		props, err := s.Propose(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(props) != 1 {
			t.Fatalf("Propose(1) returned %d proposals", len(props))
		}
		if err := s.Commit(props[0].Pair, truth[props[0].Pair]); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Estimate()
	if got != res.FMeasure {
		t.Fatalf("propose/commit F̂ = %v, Run F̂ = %v (want identical)", got, res.FMeasure)
	}
	if n := s.Status().LabelsCommitted; n != res.LabelsConsumed {
		t.Fatalf("labels committed = %d, Run consumed = %d", n, res.LabelsConsumed)
	}
}

// TestConcurrentProposeCommit hammers one session from many goroutines —
// the acceptance gate for go test -race — and checks accounting and the
// estimate stay coherent.
func TestConcurrentProposeCommit(t *testing.T) {
	scores, preds, truth := testPool(5000, 11)
	const (
		budget  = 400
		workers = 8
	)
	m := newTestManager(nil)
	s, err := m.Create(Config{
		Scores: scores, Preds: preds, Calibrated: true,
		Options: oasis.Options{Strata: 20, Seed: 5},
		Budget:  budget,
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for spins := 0; spins < 10*budget; spins++ {
				props, err := s.Propose(7)
				if errors.Is(err, ErrBudgetExhausted) {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				if len(props) == 0 {
					// The rest of the budget is leased to other workers:
					// give them time to commit instead of burning spins
					// while they wait for a CPU.
					time.Sleep(50 * time.Microsecond)
				}
				for _, pr := range props {
					if err := s.Commit(pr.Pair, truth[pr.Pair]); err != nil {
						t.Error(err)
						return
					}
				}
			}
			t.Error("worker spun out without exhausting the budget")
		}()
	}
	wg.Wait()

	st := s.Status()
	if st.LabelsCommitted != budget {
		t.Fatalf("labels committed = %d, want %d", st.LabelsCommitted, budget)
	}
	if st.PendingProposals != 0 {
		t.Fatalf("pending proposals = %d after drain, want 0", st.PendingProposals)
	}
	if st.Estimate == nil {
		t.Fatal("estimate undefined after full budget")
	}
	f := trueF(0.5, preds, truth)
	if math.Abs(*st.Estimate-f) > 0.25 {
		t.Fatalf("estimate %v implausibly far from true F %v", *st.Estimate, f)
	}
}

// TestConcurrentSessions exercises the Manager itself under -race:
// create/list/propose/commit/delete across goroutines and sessions.
func TestConcurrentSessions(t *testing.T) {
	scores, preds, truth := testPool(1500, 3)
	m := newTestManager(nil)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := m.Create(Config{
				Scores: scores, Preds: preds, Calibrated: true,
				Options: oasis.Options{Strata: 10, Seed: uint64(w)},
			})
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 20; i++ {
				props, err := s.Propose(3)
				if err != nil {
					t.Error(err)
					return
				}
				for _, pr := range props {
					if err := s.Commit(pr.Pair, truth[pr.Pair]); err != nil {
						t.Error(err)
					}
				}
				m.List()
			}
			if err := m.Delete(s.ID()); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	if m.Len() != 0 {
		t.Fatalf("%d sessions left after deletes", m.Len())
	}
}

// TestLeaseExpiry checks the lease lifecycle: leased pairs are not
// re-proposed, expired leases return their pairs to the proposable set, and
// a label arriving after expiry is rejected.
func TestLeaseExpiry(t *testing.T) {
	scores, preds, _ := testPool(40, 9)
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	m := newTestManager(clock)
	s, err := m.Create(Config{
		Scores: scores, Preds: preds, Calibrated: true,
		Options:  oasis.Options{Strata: 5, Seed: 1},
		LeaseTTL: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	first, err := s.Propose(40)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 40 {
		t.Fatalf("proposed %d of 40 pool pairs", len(first))
	}
	again, err := s.Propose(40)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 0 {
		t.Fatalf("re-proposed %d pairs while all leases live", len(again))
	}

	now = now.Add(11 * time.Second) // every lease expires
	reproposed, err := s.Propose(40)
	if err != nil {
		t.Fatal(err)
	}
	if len(reproposed) != 40 {
		t.Fatalf("only %d of 40 pairs returned to the pool after expiry", len(reproposed))
	}
	if st := s.Status(); st.PendingProposals != 40 {
		t.Fatalf("pending = %d, want 40", st.PendingProposals)
	}

	// Expire the fresh leases too, then answer late: rejected.
	now = now.Add(11 * time.Second)
	if err := s.Commit(reproposed[0].Pair, true); !errors.Is(err, ErrNotProposed) {
		t.Fatalf("late commit: got %v, want ErrNotProposed", err)
	}
	if st := s.Status(); st.LabelsCommitted != 0 {
		t.Fatalf("late commit changed label count: %d", st.LabelsCommitted)
	}
}

// TestSnapshotRestore checks the snapshot round trip: estimates are equal
// after restore, and the restored session continues the random stream
// exactly — identical future proposals and estimates. The uniform
// configuration (one stratum, ε = 1) is the paper's Passive baseline.
func TestSnapshotRestore(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts oasis.Options
	}{
		{"oasis", oasis.Options{Strata: 15, Seed: 77}},
		{"uniform", oasis.Options{Strata: 1, Epsilon: 1, Seed: 77}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scores, preds, truth := testPool(2500, 21)
			cfg := Config{
				ID:     "snap",
				Scores: scores, Preds: preds, Calibrated: true,
				Options: tc.opts,
			}
			m := newTestManager(nil)
			s, err := m.Create(cfg)
			if err != nil {
				t.Fatal(err)
			}
			label := func(s *Session, n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					props, err := s.Propose(4)
					if err != nil {
						t.Fatal(err)
					}
					for _, pr := range props {
						if err := s.Commit(pr.Pair, truth[pr.Pair]); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			label(s, 25)

			// Leave one proposal dangling: the snapshot is exact, so it must
			// survive the restore as a live (re-leased) proposal.
			dangling, err := s.Propose(1)
			if err != nil {
				t.Fatal(err)
			}

			data, err := m.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			m2 := newTestManager(nil)
			if err := m2.Restore(data); err != nil {
				t.Fatal(err)
			}
			r, err := m2.Get("snap")
			if err != nil {
				t.Fatal(err)
			}

			if got, want := r.Estimate(), s.Estimate(); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("restored estimate %v, want %v", got, want)
			}
			if st := r.Status(); st.PendingProposals != len(dangling) {
				t.Fatalf("restored session has %d pending proposals, want %d", st.PendingProposals, len(dangling))
			}
			// The restored lease is live: its label commits on both sides.
			for _, pr := range dangling {
				if err := r.Commit(pr.Pair, truth[pr.Pair]); err != nil {
					t.Fatalf("commit of restored proposal: %v", err)
				}
				if err := s.Commit(pr.Pair, truth[pr.Pair]); err != nil {
					t.Fatal(err)
				}
			}
			label(s, 10)
			label(r, 10)
			if got, want := r.Estimate(), s.Estimate(); got != want {
				t.Fatalf("post-restore estimate diverged: %v vs %v", got, want)
			}
			if got, want := r.Status().LabelsCommitted, s.Status().LabelsCommitted; got != want {
				t.Fatalf("post-restore label count diverged: %d vs %d", got, want)
			}
		})
	}
}

// TestPoolExhaustion checks Propose turns terminal once the whole pool is
// labelled, even with an unlimited budget — pollers must not livelock.
func TestPoolExhaustion(t *testing.T) {
	scores, preds, truth := testPool(25, 17)
	m := newTestManager(nil)
	s, err := m.Create(Config{
		Scores: scores, Preds: preds, Calibrated: true,
		Options: oasis.Options{Strata: 4, Seed: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	labelled := 0
	for {
		props, err := s.Propose(10)
		if errors.Is(err, ErrBudgetExhausted) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, pr := range props {
			if err := s.Commit(pr.Pair, truth[pr.Pair]); err != nil {
				t.Fatal(err)
			}
			labelled++
		}
	}
	if labelled != 25 {
		t.Fatalf("labelled %d of 25 pairs before exhaustion", labelled)
	}
}

// TestRestoreRejectsDuplicateIDs checks a snapshot containing the same
// session ID twice aborts instead of silently overwriting state.
func TestRestoreRejectsDuplicateIDs(t *testing.T) {
	scores, preds, _ := testPool(200, 19)
	m := newTestManager(nil)
	if _, err := m.Create(Config{
		ID: "dup", Scores: scores, Preds: preds, Calibrated: true,
		Options: oasis.Options{Strata: 4, Seed: 1},
	}); err != nil {
		t.Fatal(err)
	}
	data, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Version  int               `json:"version"`
		Sessions []json.RawMessage `json:"sessions"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	file.Sessions = append(file.Sessions, file.Sessions[0])
	doubled, err := json.Marshal(file)
	if err != nil {
		t.Fatal(err)
	}
	m2 := newTestManager(nil)
	if err := m2.Restore(doubled); err == nil {
		t.Fatal("restore of duplicate-ID snapshot succeeded")
	}
	if m2.Len() != 0 {
		t.Fatalf("aborted restore registered %d sessions", m2.Len())
	}
}

// TestBudgetEnforcement checks Propose never leases beyond the budget and
// terminates with ErrBudgetExhausted.
func TestBudgetEnforcement(t *testing.T) {
	scores, preds, truth := testPool(800, 13)
	m := newTestManager(nil)
	s, err := m.Create(Config{
		Scores: scores, Preds: preds, Calibrated: true,
		Options: oasis.Options{Strata: 10, Seed: 2},
		Budget:  25,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for {
		props, err := s.Propose(10)
		if errors.Is(err, ErrBudgetExhausted) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		total += len(props)
		for _, pr := range props {
			if err := s.Commit(pr.Pair, truth[pr.Pair]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if total != 25 {
		t.Fatalf("leased %d pairs, want exactly the budget 25", total)
	}
	if st := s.Status(); st.Remaining != 0 {
		t.Fatalf("remaining = %d, want 0", st.Remaining)
	}
}

// blockingJournal is a Journal stub whose create appends stall until
// released — a slow fsync frozen mid-flight, so tests can observe the gap
// between a create's journal append and its registration.
type blockingJournal struct {
	entered chan struct{} // receives when a create append begins
	release chan struct{} // closed to let the stalled append finish
	mu      sync.Mutex
	lsn     uint64
}

func (b *blockingJournal) Append(ev *Event) (uint64, error) {
	if ev.Type == EventCreate {
		b.entered <- struct{}{}
		<-b.release
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lsn++
	ev.LSN = b.lsn
	return b.lsn, nil
}

func (b *blockingJournal) Err() error { return nil }

// TestCreateBarrierWaitsForInflightCreate pins the ordering contract WAL
// compaction relies on: CreateBarrier must not return while a Create sits
// between its journal append and its registration — a snapshot taken in
// that gap would miss a session whose create record compaction is about to
// fold away and delete, silently losing the acknowledged session.
func TestCreateBarrierWaitsForInflightCreate(t *testing.T) {
	scores, preds, _ := testPool(50, 1)
	jrn := &blockingJournal{entered: make(chan struct{}), release: make(chan struct{})}
	m := NewManager(ManagerOptions{})
	m.SetJournal(jrn)

	created := make(chan error, 1)
	go func() {
		_, err := m.Create(Config{
			ID: "inflight", Scores: scores, Preds: preds, Calibrated: true,
			Options: oasis.Options{Strata: 4, Seed: 3},
		})
		created <- err
	}()
	<-jrn.entered // the create event is journaling; the session is not yet registered

	barrier := make(chan struct{})
	go func() {
		m.CreateBarrier()
		close(barrier)
	}()
	select {
	case <-barrier:
		t.Fatal("CreateBarrier returned while a journaled create was still unregistered")
	case <-time.After(50 * time.Millisecond):
	}

	close(jrn.release)
	if err := <-created; err != nil {
		t.Fatal(err)
	}
	<-barrier

	// The snapshot a compaction takes after the barrier holds the session.
	data, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var file snapshotFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Sessions) != 1 || file.Sessions[0].Config.ID != "inflight" {
		t.Fatalf("snapshot after the barrier misses the in-flight create: %+v", file.Sessions)
	}
}
