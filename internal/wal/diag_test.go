package wal

// Recovery coverage for the convergence diagnostics: commit events journal
// their wall clock, and replay re-records each diagnostics point from the
// journaled timestamp, so a recovered session must serve a byte-identical
// diagnostics payload — series, stride, alarm state and all.

import (
	"encoding/json"
	"testing"
	"time"

	"oasis"
	"oasis/internal/session"
)

// TestReplayRebuildsDiagnosticsByteIdentical crashes a journaled manager
// (no snapshot, no shutdown) and checks the recovered sessions' diagnostics
// payloads match the live ones byte for byte, for both an OASIS session and
// one in the uniform configuration (one stratum, ε = 1: the paper's Passive
// baseline), with enough batches to force series compactions.
func TestReplayRebuildsDiagnosticsByteIdentical(t *testing.T) {
	scores, preds, truth := walPool(3000, 41)
	now := time.Unix(9000, 0)
	clock := func() time.Time { now = now.Add(137 * time.Millisecond); return now }

	dir := t.TempDir()
	diagOpts := session.DiagOptions{SeriesCapacity: 16}
	live := session.NewManager(session.ManagerOptions{Now: clock, Diag: diagOpts})
	mustOpen(t, dir, live, Options{Fsync: "off"})

	mkCfg := func(id string, opts oasis.Options) session.Config {
		return session.Config{
			ID:     id,
			Scores: scores, Preds: preds, Calibrated: true,
			Options: opts,
		}
	}
	so, err := live.Create(mkCfg("oasis", oasis.Options{Strata: 9, Seed: 43}))
	if err != nil {
		t.Fatal(err)
	}
	su, err := live.Create(mkCfg("uniform", oasis.Options{Strata: 1, Epsilon: 1, Seed: 47}))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 40; round++ {
		driveRound(t, so, 3, truth)
		driveRound(t, su, 3, truth)
	}
	if d := so.Diagnostics(); d.SeriesStride < 2 {
		t.Fatalf("fixture did not force a compaction: stride %d", d.SeriesStride)
	}

	// Crash: recover a fresh manager from the log alone. The recovery clock
	// starts somewhere else entirely — replay must take wall times from the
	// journal, not from the clock.
	recovered := session.NewManager(session.ManagerOptions{
		Now:  func() time.Time { return time.Unix(99999, 0) },
		Diag: diagOpts,
	})
	j2 := mustOpen(t, dir, recovered, Options{Fsync: "off"})
	defer j2.Close()

	for _, id := range []string{"oasis", "uniform"} {
		a, err := live.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := recovered.Get(id)
		if err != nil {
			t.Fatalf("session %q not recovered: %v", id, err)
		}
		want, err := json.Marshal(a.Diagnostics())
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(b.Diagnostics())
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%s: recovered diagnostics diverge:\n got %s\nwant %s", id, got, want)
		}
	}
}
