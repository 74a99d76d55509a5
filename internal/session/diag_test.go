package session

// Tests of the convergence-diagnostics plumbing: the per-session series
// must survive a manager snapshot byte-for-byte, stay coherent under
// concurrent scrapes while commits are in flight (the -race gate for the
// diagnostics rings), and the degeneracy alarm must log and export its
// transitions.

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oasis"
	"oasis/internal/diag"
)

// driveCommits proposes batches of n and commits every proposal with the
// truth labels, for the given number of rounds.
func driveCommits(t *testing.T, s *Session, rounds, n int, truth []bool) {
	t.Helper()
	for i := 0; i < rounds; i++ {
		props, err := s.Propose(n)
		if err != nil {
			t.Fatal(err)
		}
		pairs := make([]int, len(props))
		labels := make([]bool, len(props))
		for j, p := range props {
			pairs[j] = p.Pair
			labels[j] = truth[p.Pair]
		}
		if _, err := s.CommitBatch(pairs, labels); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDiagnosticsSnapshotRoundTrip drives enough commit batches to force
// at least one downsampling compaction, snapshots the manager, and checks
// the restored session serves a byte-identical diagnostics payload — then
// drives both sessions onward and checks they stay identical, proving the
// restored tracker resumes mid-stride rather than restarting.
func TestDiagnosticsSnapshotRoundTrip(t *testing.T) {
	scores, preds, truth := testPool(3000, 17)
	// A frozen clock keeps the wall column identical across both managers;
	// wall-time reproducibility across replay is the WAL tests' business
	// (replay re-stamps points from the journaled event timestamps).
	clock := func() time.Time { return time.Unix(5000, 0) }
	m := NewManager(ManagerOptions{
		Now:  clock,
		Diag: DiagOptions{SeriesCapacity: 16}, // small ring: compactions guaranteed
	})
	s, err := m.Create(Config{
		ID: "d", Scores: scores, Preds: preds, Calibrated: true,
		Options: oasis.Options{Strata: 8, Seed: 23},
	})
	if err != nil {
		t.Fatal(err)
	}
	driveCommits(t, s, 40, 2, truth)
	if s.Diagnostics().SeriesStride < 2 {
		t.Fatalf("fixture did not force a compaction: stride %d", s.Diagnostics().SeriesStride)
	}

	data, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewManager(ManagerOptions{
		Now:  clock,
		Diag: DiagOptions{SeriesCapacity: 16},
	})
	if err := m2.Restore(data); err != nil {
		t.Fatal(err)
	}
	r, err := m2.Get("d")
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(s.Diagnostics())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(r.Diagnostics())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("restored diagnostics diverge:\n got %s\nwant %s", got, want)
	}

	// Continue both sides: identical seeds draw identical pairs, so the
	// series must continue in lockstep, including further compactions.
	driveCommits(t, s, 30, 2, truth)
	driveCommits(t, r, 30, 2, truth)
	want, _ = json.Marshal(s.Diagnostics())
	got, _ = json.Marshal(r.Diagnostics())
	if string(got) != string(want) {
		t.Fatalf("diagnostics diverge after continued commits:\n got %s\nwant %s", got, want)
	}
}

// TestDiagnosticsScrapeWhileCommit hammers Diagnostics, SamplerHealth and
// DiagMemBytes from scraper goroutines while workers propose and commit —
// the acceptance gate for go test -race over the diagnostics rings.
func TestDiagnosticsScrapeWhileCommit(t *testing.T) {
	scores, preds, truth := testPool(5000, 19)
	m := newTestManager(nil)
	s, err := m.Create(Config{
		ID: "stress", Scores: scores, Preds: preds, Calibrated: true,
		Options: oasis.Options{Strata: 10, Seed: 29},
		Budget:  600,
	})
	if err != nil {
		t.Fatal(err)
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				d := s.Diagnostics()
				// The labels axis of the retained series must be monotone
				// non-decreasing no matter when the scrape lands.
				for i := 1; i < len(d.Series); i++ {
					if d.Series[i].Labels < d.Series[i-1].Labels {
						t.Errorf("series labels axis not monotone: %d after %d",
							d.Series[i].Labels, d.Series[i-1].Labels)
						return
					}
				}
				if _, err := json.Marshal(d); err != nil {
					t.Errorf("diagnostics marshal: %v", err)
					return
				}
				_ = s.SamplerHealth()
				_ = s.DiagMemBytes()
			}
		}()
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				props, err := s.Propose(3)
				if err != nil || len(props) == 0 {
					return
				}
				for _, p := range props {
					if err := s.Commit(p.Pair, truth[p.Pair]); err != nil {
						return
					}
				}
			}
		}()
	}
	time.Sleep(150 * time.Millisecond)
	done.Store(true)
	wg.Wait()

	d := s.Diagnostics()
	if d.SeriesSeen == 0 || len(d.Series) == 0 {
		t.Fatalf("no diagnostics recorded under stress: seen=%d len=%d", d.SeriesSeen, len(d.Series))
	}
}

// TestDiagnosticsAlarmLogsTransition forces a degraded transition with an
// unreachable ESS threshold and checks it is logged exactly once and
// reflected in SamplerHealth and Diagnostics.
func TestDiagnosticsAlarmLogsTransition(t *testing.T) {
	scores, preds, truth := testPool(1500, 23)
	var mu sync.Mutex
	var lines []string
	m := NewManager(ManagerOptions{
		Diag: DiagOptions{
			Thresholds: diag.Thresholds{ESSDegraded: 0.9999, ESSDegenerate: -1, MinLabels: 5},
			Logf: func(format string, args ...any) {
				mu.Lock()
				lines = append(lines, fmt.Sprintf(format, args...))
				mu.Unlock()
			},
		},
	})
	s, err := m.Create(Config{
		ID: "alarm", Scores: scores, Preds: preds, Calibrated: true,
		Options: oasis.Options{Strata: 6, Seed: 31},
	})
	if err != nil {
		t.Fatal(err)
	}
	driveCommits(t, s, 20, 2, truth)

	if st := s.SamplerHealth().State; st != diag.StateDegraded {
		t.Fatalf("alarm state = %v, want degraded", st)
	}
	if d := s.Diagnostics(); d.State != "degraded" {
		t.Fatalf("diagnostics state = %q, want degraded", d.State)
	}
	mu.Lock()
	defer mu.Unlock()
	var transitions int
	for _, l := range lines {
		if strings.Contains(l, "ok -> degraded") {
			transitions++
		}
	}
	if transitions != 1 {
		t.Fatalf("degraded transition logged %d times, want exactly 1 (lines: %q)", transitions, lines)
	}
}

// TestDiagnosticsStrataBlock checks the per-stratum block: a session exposes
// one entry per stratum with coherent shares, and the uniform configuration
// (one stratum, ε = 1) exposes exactly one.
func TestDiagnosticsStrataBlock(t *testing.T) {
	scores, preds, truth := testPool(2000, 29)
	m := newTestManager(nil)
	so, err := m.Create(Config{
		ID: "o", Scores: scores, Preds: preds, Calibrated: true,
		Options: oasis.Options{Strata: 7, Seed: 37},
	})
	if err != nil {
		t.Fatal(err)
	}
	su, err := m.Create(Config{
		ID: "u", Scores: scores, Preds: preds, Calibrated: true,
		Options: oasis.Options{Strata: 1, Epsilon: 1, Seed: 37},
	})
	if err != nil {
		t.Fatal(err)
	}
	driveCommits(t, so, 30, 2, truth)
	driveCommits(t, su, 30, 2, truth)

	d := so.Diagnostics()
	if len(d.Strata) != 7 {
		t.Fatalf("oasis diagnostics carry %d strata, want 7", len(d.Strata))
	}
	var draws int64
	var weightShare float64
	for _, sh := range d.Strata {
		draws += sh.Draws
		if sh.Draws > 0 && !(sh.ESS > 0) {
			t.Fatalf("stratum %d has %d draws but ESS %v", sh.Stratum, sh.Draws, sh.ESS)
		}
		if !isNaN(float64(sh.WeightShare)) {
			weightShare += float64(sh.WeightShare)
		}
	}
	if draws == 0 {
		t.Fatal("no per-stratum draws recorded")
	}
	if weightShare < 0.999 || weightShare > 1.001 {
		t.Fatalf("weight shares sum to %v, want 1", weightShare)
	}
	du := su.Diagnostics()
	if len(du.Strata) != 1 {
		t.Fatalf("uniform diagnostics carry %d strata, want 1", len(du.Strata))
	}
	if sh := du.Strata[0]; sh.Draws != int64(du.Terms) || float64(sh.WeightShare) != 1 || float64(sh.Instrumental) != 1 {
		t.Fatalf("uniform stratum %+v over %d terms, want every draw at weight share 1", sh, du.Terms)
	}
}

func isNaN(f float64) bool { return f != f }
