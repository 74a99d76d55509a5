package session

// Error-path coverage for Manager.Restore: corrupt JSON, truncated
// payloads, version skew and ID collisions must reject the snapshot and
// leave the manager exactly as it was — oasis-server restores snapshots
// from disk at startup, so a damaged file must never half-apply.

import (
	"fmt"
	"strings"
	"testing"

	"oasis"
)

// restoreFixture returns a manager holding one live session plus a snapshot
// of a second manager whose session ID clashes with nothing.
func restoreFixture(t *testing.T) (m *Manager, preEstimate float64) {
	t.Helper()
	scores, preds, truth := testPool(400, 31)
	m = newTestManager(nil)
	s, err := m.Create(Config{
		ID: "existing", Scores: scores, Preds: preds, Calibrated: true,
		Options: oasis.Options{Strata: 5, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		props, err := s.Propose(2)
		if err != nil {
			t.Fatal(err)
		}
		for _, pr := range props {
			if err := s.Commit(pr.Pair, truth[pr.Pair]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return m, s.Estimate()
}

// requireUnmodified checks the fixture manager still holds exactly its
// original, fully functional session.
func requireUnmodified(t *testing.T, m *Manager, preEstimate float64) {
	t.Helper()
	if m.Len() != 1 {
		t.Fatalf("manager has %d sessions after failed restore, want 1", m.Len())
	}
	s, err := m.Get("existing")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Estimate(); got != preEstimate {
		t.Fatalf("existing session's estimate changed: %v -> %v", preEstimate, got)
	}
	if props, err := s.Propose(1); err != nil || len(props) != 1 {
		t.Fatalf("existing session unusable after failed restore: %d proposals, err %v", len(props), err)
	}
}

func TestRestoreCorruptJSON(t *testing.T) {
	m, pre := restoreFixture(t)
	if err := m.Restore([]byte(`{"version": 1, "sessions": [{"config"`)); err == nil {
		t.Fatal("restore accepted corrupt JSON")
	}
	requireUnmodified(t, m, pre)
}

func TestRestoreTruncatedPayload(t *testing.T) {
	m, pre := restoreFixture(t)
	data, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, len(data) / 2, len(data) - 3} {
		if err := m.Restore(data[:cut]); err == nil {
			t.Fatalf("restore accepted a payload truncated to %d of %d bytes", cut, len(data))
		}
	}
	requireUnmodified(t, m, pre)
}

func TestRestoreBadVersion(t *testing.T) {
	m, pre := restoreFixture(t)
	if err := m.Restore([]byte(`{"version": 99, "sessions": []}`)); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Fatalf("restore of unsupported version: err = %v", err)
	}
	requireUnmodified(t, m, pre)
}

func TestRestoreClashingIDLeavesManagerUnmodified(t *testing.T) {
	m, pre := restoreFixture(t)
	// Snapshot a different manager whose session reuses the live ID.
	scores, preds, _ := testPool(200, 33)
	other := newTestManager(nil)
	if _, err := other.Create(Config{
		ID: "existing", Scores: scores, Preds: preds, Calibrated: true,
		Options: oasis.Options{Strata: 4, Seed: 9},
	}); err != nil {
		t.Fatal(err)
	}
	// Add a second, non-clashing session: the abort must be all-or-nothing,
	// so not even this one may be registered.
	if _, err := other.Create(Config{
		ID: "innocent", Scores: scores, Preds: preds, Calibrated: true,
		Options: oasis.Options{Strata: 4, Seed: 10},
	}); err != nil {
		t.Fatal(err)
	}
	data, err := other.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Restore(data); err == nil {
		t.Fatal("restore accepted a snapshot with a clashing session ID")
	}
	if _, err := m.Get("innocent"); err == nil {
		t.Fatal("aborted restore still registered the non-clashing session")
	}
	requireUnmodified(t, m, pre)
}

// TestRestoreRejectsBogusLeases checks lease validation: out-of-range,
// duplicate, and already-labelled lease pairs must reject the snapshot.
func TestRestoreRejectsBogusLeases(t *testing.T) {
	m, pre := restoreFixture(t)
	scores, preds, truth := testPool(200, 37)
	other := newTestManager(nil)
	s, err := other.Create(Config{
		ID: "leasy", Scores: scores, Preds: preds, Calibrated: true,
		Options: oasis.Options{Strata: 4, Seed: 13},
	})
	if err != nil {
		t.Fatal(err)
	}
	props, err := s.Propose(2)
	if err != nil || len(props) != 2 {
		t.Fatalf("propose: %d proposals, err %v", len(props), err)
	}
	if err := s.Commit(props[0].Pair, truth[props[0].Pair]); err != nil {
		t.Fatal(err)
	}
	data, err := other.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	leased, labelled := props[1].Pair, props[0].Pair
	orig := fmt.Sprintf(`"leases":[%d]`, leased)
	if !strings.Contains(string(data), orig) {
		t.Fatalf("fixture snapshot missing expected lease list %s", orig)
	}
	for _, bad := range []string{
		`"leases":[999999]`,
		fmt.Sprintf(`"leases":[%d,%d]`, leased, leased),
		fmt.Sprintf(`"leases":[%d]`, labelled),
	} {
		if err := m.Restore([]byte(strings.Replace(string(data), orig, bad, 1))); err == nil {
			t.Fatalf("restore accepted snapshot with %s", bad)
		}
	}
	requireUnmodified(t, m, pre)

	// The unmodified snapshot restores, lease intact and committable.
	if err := m.Restore(data); err != nil {
		t.Fatal(err)
	}
	r, err := m.Get("leasy")
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Status(); st.PendingProposals != 1 {
		t.Fatalf("restored session has %d pending proposals, want 1", st.PendingProposals)
	}
	if err := r.Commit(leased, truth[leased]); err != nil {
		t.Fatalf("commit of restored lease: %v", err)
	}
}

// TestRestoreCorruptSessionStateMidList corrupts the second session's
// sampler state: the abort must happen before any registration.
func TestRestoreCorruptSessionStateMidList(t *testing.T) {
	m, pre := restoreFixture(t)
	scores, preds, truth := testPool(200, 35)
	other := newTestManager(nil)
	for _, id := range []string{"a", "b"} {
		s, err := other.Create(Config{
			ID: id, Scores: scores, Preds: preds, Calibrated: true,
			Options: oasis.Options{Strata: 4, Seed: 11},
		})
		if err != nil {
			t.Fatal(err)
		}
		if id == "b" {
			// Give only "b" a committed label, so the snapshot's single
			// labels map belongs to the second session in the file.
			props, err := s.Propose(1)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Commit(props[0].Pair, truth[props[0].Pair]); err != nil {
				t.Fatal(err)
			}
		}
	}
	data, err := other.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// A label outside the pool is structurally valid JSON but must be
	// rejected by the sampler's own validation.
	corrupt := strings.Replace(string(data), `"labels":{"`, `"labels":{"999999":true,"`, 1)
	if corrupt == string(data) {
		t.Fatal("fixture snapshot has no labels map to corrupt")
	}
	if err := m.Restore([]byte(corrupt)); err == nil {
		t.Fatal("restore accepted a snapshot with corrupt session state")
	}
	if _, err := m.Get("a"); err == nil {
		t.Fatal("aborted restore registered a session before the corrupt one")
	}
	requireUnmodified(t, m, pre)
}

// TestRestoreRefusesEntriesWithoutSamplerState: an entry without sampler
// state is refused, because a fresh sampler restored under the entry's
// watermark would make tail replay skip the session's journaled labels; so
// is an entry of the removed passive method. WAL replay parks the passive
// entry instead, pending a delete in the tail; a stateless entry stays
// fatal there too.
func TestRestoreRefusesEntriesWithoutSamplerState(t *testing.T) {
	pool := `"scores":[0.9,0.8,0.2,0.1],"preds":[true,true,false,false],"calibrated":true`
	bare := `{"version":1,"sessions":[{"config":{"id":"bare",` + pool + `,"options":{"Strata":2}},"lastLSN":9}]}`
	passive := `{"version":1,"sessions":[{"config":{"id":"old","method":"passive",` + pool + `},"lastLSN":9,` +
		`"passive":{"num":0,"pred":0,"true":0,"n":0,"rng":{"s":[1,2,3,4]}}}]}`
	m, pre := restoreFixture(t)
	for _, payload := range []string{bare, passive} {
		if err := m.Restore([]byte(payload)); err == nil {
			t.Fatalf("restore accepted %s", payload)
		}
	}
	if err := m.RestoreReplay([]byte(bare)); err == nil || !strings.Contains(err.Error(), "nil sampler state") {
		t.Fatalf("replay restore of a stateless entry: err = %v", err)
	}
	requireUnmodified(t, m, pre)

	if err := m.RestoreReplay([]byte(passive)); err != nil {
		t.Fatalf("replay restore did not park the passive entry: %v", err)
	}
	requireUnmodified(t, m, pre)
	if err := m.UnresolvedReplayCreates(); err == nil || !strings.Contains(err.Error(), `"old": session: method "passive" was removed`) {
		t.Fatalf("parked passive entry: err = %v", err)
	}
	if _, err := m.ReplayEvent(&Event{Type: EventDelete, Session: "old", LSN: 10}); err != nil {
		t.Fatal(err)
	}
	if err := m.UnresolvedReplayCreates(); err != nil {
		t.Fatalf("delete did not absolve the parked passive entry: %v", err)
	}
}
