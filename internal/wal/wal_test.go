package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"oasis"
	"oasis/internal/rng"
	"oasis/internal/session"
)

// walPool builds a synthetic calibrated pool with ER-like imbalance.
func walPool(n int, seed uint64) (scores []float64, preds, truth []bool) {
	r := rng.New(seed)
	scores = make([]float64, n)
	preds = make([]bool, n)
	truth = make([]bool, n)
	for i := 0; i < n; i++ {
		u := r.Float64()
		scores[i] = u * u
		preds[i] = scores[i] >= 0.5
		truth[i] = r.Bernoulli(scores[i])
	}
	return scores, preds, truth
}

func mustOpen(t *testing.T, dir string, mgr *session.Manager, opts Options) *Journal {
	t.Helper()
	j, err := Open(dir, mgr, opts)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// dirInv reads the directory inventory or fails the test.
func dirInv(t *testing.T, dir string) dirState {
	t.Helper()
	inv, err := readDirState(dir)
	if err != nil {
		t.Fatal(err)
	}
	return inv
}

// newestLaneSegment returns the path of a lane's newest segment file.
func newestLaneSegment(t *testing.T, dir string, lane int) string {
	t.Helper()
	segs := dirInv(t, dir).laneSegs[lane]
	if len(segs) == 0 {
		t.Fatalf("lane %d has no segments in %s", lane, dir)
	}
	return filepath.Join(dir, segmentName(lane, segs[len(segs)-1]))
}

// driveRound proposes a batch and commits every proposal with the truth
// labels, returning the proposed pairs.
func driveRound(t *testing.T, s *session.Session, n int, truth []bool) []int {
	t.Helper()
	props, err := s.Propose(n)
	if err != nil && !errors.Is(err, session.ErrBudgetExhausted) {
		t.Fatal(err)
	}
	pairs := make([]int, len(props))
	labels := make([]bool, len(props))
	for i, p := range props {
		pairs[i] = p.Pair
		labels[i] = truth[p.Pair]
	}
	results, err := s.CommitBatch(pairs, labels)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r != session.Committed {
			t.Fatalf("commit of freshly proposed pair %d: result %v", pairs[i], r)
		}
	}
	return pairs
}

// requireSameContinuation drives both sessions for `rounds` propose/commit
// rounds and demands identical proposal sequences and estimates — the
// recovered state is bit-for-bit the live one.
func requireSameContinuation(t *testing.T, a, b *session.Session, rounds, batch int, truth []bool) {
	t.Helper()
	for round := 0; round < rounds; round++ {
		pa := driveRound(t, a, batch, truth)
		pb := driveRound(t, b, batch, truth)
		if len(pa) != len(pb) {
			t.Fatalf("round %d: batch sizes diverge: %d vs %d", round, len(pa), len(pb))
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("round %d: proposal %d diverges: pair %d vs %d", round, i, pa[i], pb[i])
			}
		}
		ea, eb := a.Estimate(), b.Estimate()
		if ea != eb {
			t.Fatalf("round %d: estimates diverge: %v vs %v", round, ea, eb)
		}
	}
}

// TestRecoveryContinuesExactly is the golden recovery test: a manager
// journaled to a WAL, killed without any shutdown (the journal is simply
// abandoned), recovers from the log alone and continues the exact proposal
// sequence of the live manager — across an OASIS session, a session in the
// uniform configuration (one stratum, ε = 1: the paper's Passive baseline),
// lease expiries, uncommitted proposals at the crash point, and a
// delete/recreate of a session ID.
func TestRecoveryContinuesExactly(t *testing.T) {
	scores, preds, truth := walPool(4000, 7)
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }

	dir := t.TempDir()
	live := session.NewManager(session.ManagerOptions{Now: clock})
	mustOpen(t, dir, live, Options{Fsync: "off"})

	mkCfg := func(id string, opts oasis.Options) session.Config {
		return session.Config{
			ID:     id,
			Scores: scores, Preds: preds, Calibrated: true,
			Options:  opts,
			LeaseTTL: 30 * time.Second,
		}
	}
	so, err := live.Create(mkCfg("oasis", oasis.Options{Strata: 15, Seed: 11}))
	if err != nil {
		t.Fatal(err)
	}
	su, err := live.Create(mkCfg("uniform", oasis.Options{Strata: 1, Epsilon: 1, Seed: 13}))
	if err != nil {
		t.Fatal(err)
	}

	// A session that is created, driven, deleted, and recreated under the
	// same ID: the LSN watermarks must keep the incarnations apart.
	tmp, err := live.Create(mkCfg("ephemeral", oasis.Options{Strata: 15, Seed: 17}))
	if err != nil {
		t.Fatal(err)
	}
	driveRound(t, tmp, 5, truth)
	if err := live.Delete("ephemeral"); err != nil {
		t.Fatal(err)
	}
	se, err := live.Create(mkCfg("ephemeral", oasis.Options{Strata: 15, Seed: 19}))
	if err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 12; round++ {
		driveRound(t, so, 8, truth)
		driveRound(t, su, 8, truth)
		driveRound(t, se, 4, truth)
		if round == 5 {
			// Let a batch of leases expire: the releases must be journaled
			// and replayed, not re-derived from the clock.
			if _, err := so.Propose(6); err != nil {
				t.Fatal(err)
			}
			now = now.Add(31 * time.Second)
		}
	}
	// Leave proposals outstanding at the "crash": they must be dropped on
	// recovery, exactly as the restart barrier prescribes.
	if _, err := so.Propose(5); err != nil {
		t.Fatal(err)
	}
	if _, err := su.Propose(3); err != nil {
		t.Fatal(err)
	}

	// Crash: no Close, no snapshot — recover a fresh manager from the log.
	recovered := session.NewManager(session.ManagerOptions{Now: clock})
	j2 := mustOpen(t, dir, recovered, Options{Fsync: "off"})
	defer j2.Close()
	if got := recovered.Len(); got != 3 {
		t.Fatalf("recovered %d sessions, want 3", got)
	}
	if st := j2.Stats(); st.ReplayApplied == 0 || st.ReplaySnapshot {
		t.Fatalf("unexpected replay stats: %+v", st)
	}

	// Mirror the boot barrier on the live side and detach its journal (two
	// journals must not interleave in one directory).
	if _, err := live.ReplayEvent(&session.Event{Type: session.EventRestart}); err != nil {
		t.Fatal(err)
	}
	live.SetJournal(nil)

	for _, id := range []string{"oasis", "uniform", "ephemeral"} {
		a, err := live.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := recovered.Get(id)
		if err != nil {
			t.Fatalf("session %q not recovered: %v", id, err)
		}
		if la, lb := a.Status().LabelsCommitted, b.Status().LabelsCommitted; la != lb {
			t.Fatalf("%s: labels committed diverge: %d vs %d", id, la, lb)
		}
		if pb := b.Status().PendingProposals; pb != 0 {
			t.Fatalf("%s: recovered session has %d pending proposals, want 0", id, pb)
		}
		requireSameContinuation(t, a, b, 8, 8, truth)
	}
}

// TestCompactionFoldsSegments drives a journal across many tiny segments,
// compacts mid-flight — with proposals outstanding, so later commits
// reference draws folded into the snapshot — and checks recovery from
// snapshot+tail still continues exactly, with the cold segments gone.
func TestCompactionFoldsSegments(t *testing.T) {
	scores, preds, truth := walPool(3000, 23)
	dir := t.TempDir()
	live := session.NewManager(session.ManagerOptions{})
	j := mustOpen(t, dir, live, Options{Fsync: "off", SegmentBytes: 4 << 10})

	s, err := live.Create(session.Config{
		ID: "c", Scores: scores, Preds: preds, Calibrated: true,
		Options: oasis.Options{Strata: 12, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 10; round++ {
		driveRound(t, s, 16, truth)
	}

	// Propose BEFORE compacting and keep the proposals outstanding across
	// the boundary while other workers keep proposing: the snapshot must
	// carry the pending draws (with their frozen weights), or the tail's
	// propose events — whose live draws re-drew those in-flight pairs into
	// extra weighted terms — would replay against different availability and
	// diverge. Only then do the held labels arrive.
	props, err := s.Propose(10)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		driveRound(t, s, 64, truth)
	}
	pairs := make([]int, len(props))
	labels := make([]bool, len(props))
	for i, p := range props {
		pairs[i] = p.Pair
		labels[i] = truth[p.Pair]
	}
	if _, err := s.CommitBatch(pairs, labels); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		driveRound(t, s, 16, truth)
	}

	// The folded segments are deleted; a lane snapshot exists.
	inv := dirInv(t, dir)
	segs, snaps := inv.laneSegs[0], inv.laneSnaps[0]
	if len(snaps) != 1 {
		t.Fatalf("%d snapshots after compaction, want 1", len(snaps))
	}
	for _, idx := range segs {
		if idx < snaps[0] {
			t.Fatalf("folded segment %d survived compaction (boundary %d)", idx, snaps[0])
		}
	}
	if st := j.Stats(); st.Compactions != 1 {
		t.Fatalf("compactions = %d, want 1", st.Compactions)
	}

	recovered := session.NewManager(session.ManagerOptions{})
	j2 := mustOpen(t, dir, recovered, Options{Fsync: "off"})
	defer j2.Close()
	if st := j2.Stats(); !st.ReplaySnapshot {
		t.Fatalf("recovery did not load the compaction snapshot: %+v", st)
	}
	if _, err := live.ReplayEvent(&session.Event{Type: session.EventRestart}); err != nil {
		t.Fatal(err)
	}
	live.SetJournal(nil)
	r, err := recovered.Get("c")
	if err != nil {
		t.Fatal(err)
	}
	if la, lb := s.Status().LabelsCommitted, r.Status().LabelsCommitted; la != lb {
		t.Fatalf("labels committed diverge after compacted recovery: %d vs %d", la, lb)
	}
	requireSameContinuation(t, s, r, 6, 16, truth)
}

// TestAppendAfterCloseErrors pins the shutdown race: the manager is
// expected to stop serving before the journal closes, but an in-flight
// append that loses that race must get ErrClosed, not a nil dereference —
// and a clean close must not poison the sticky error.
func TestAppendAfterCloseErrors(t *testing.T) {
	dir := t.TempDir()
	mgr := session.NewManager(session.ManagerOptions{})
	j := mustOpen(t, dir, mgr, Options{Fsync: "off"})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(&session.Event{Type: session.EventRestart}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: err = %v, want ErrClosed", err)
	}
	if err := j.CompactShard(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("compact after close: err = %v, want ErrClosed", err)
	}
	if err := j.Err(); err != nil {
		t.Fatalf("clean close left a sticky error: %v", err)
	}
	// Neither call may have resurrected the lane: no fresh segment file, no
	// reopened handle.
	if inv := dirInv(t, dir); len(inv.laneSegs[0]) != 1 {
		t.Fatalf("closed journal grew segments: %v", inv.laneSegs[0])
	}
}

// TestCompactSkipsIdleLane pins the idle fast path of the periodic sweep: a
// lane with an empty active segment, no folded segments pending removal and
// a snapshot already at the boundary has nothing to fold, so a compaction
// tick must neither rotate it nor rewrite its snapshot.
func TestCompactSkipsIdleLane(t *testing.T) {
	scores, preds, truth := walPool(200, 13)
	dir := t.TempDir()
	mgr := session.NewManager(session.ManagerOptions{Shards: 1})
	j := mustOpen(t, dir, mgr, Options{Fsync: "off"})
	defer j.Close()
	s, err := mgr.Create(session.Config{
		ID: "idle", Scores: scores, Preds: preds, Calibrated: true,
		Options: oasis.Options{Strata: 4, Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	driveRound(t, s, 5, truth)
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	before := j.Stats()
	if before.Compactions != 1 {
		t.Fatalf("compactions = %d after the first sweep, want 1", before.Compactions)
	}
	// No traffic since: the next ticks must be no-ops.
	for i := 0; i < 3; i++ {
		if err := j.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	after := j.Stats()
	if after.Compactions != before.Compactions {
		t.Fatalf("idle ticks compacted: %d -> %d", before.Compactions, after.Compactions)
	}
	if after.Lanes[0].ActiveSegment != before.Lanes[0].ActiveSegment {
		t.Fatalf("idle ticks rotated the lane: segment %d -> %d", before.Lanes[0].ActiveSegment, after.Lanes[0].ActiveSegment)
	}
	// New traffic re-arms the sweep.
	driveRound(t, s, 5, truth)
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Compactions != before.Compactions+1 {
		t.Fatalf("compactions = %d after fresh traffic, want %d", st.Compactions, before.Compactions+1)
	}
}

// TestCompactRetriesFailedRemoval pins the straggler contract of the
// compaction sweep: a folded segment whose os.Remove fails must stay inside
// the lane's live range (oldest not advanced past it) so the next
// compaction retries it, instead of orphaning it on disk until a restart
// re-derives the range from the directory.
func TestCompactRetriesFailedRemoval(t *testing.T) {
	scores, preds, truth := walPool(400, 77)
	dir := t.TempDir()
	mgr := session.NewManager(session.ManagerOptions{Shards: 1})
	j := mustOpen(t, dir, mgr, Options{Fsync: "off", SegmentBytes: 512})
	s, err := mgr.Create(session.Config{
		ID: "cr", Scores: scores, Preds: preds, Calibrated: true,
		Options: oasis.Options{Strata: 6, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		driveRound(t, s, 6, truth)
	}
	segs := dirInv(t, dir).laneSegs[0]
	if len(segs) < 3 {
		t.Fatalf("fixture produced %d segments, want >= 3", len(segs))
	}
	// Make one folded segment unremovable: os.Remove on a non-empty
	// directory fails on every platform, even as root.
	stuck := segs[1]
	stuckPath := filepath.Join(dir, segmentName(0, stuck))
	if err := os.Remove(stuckPath); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(stuckPath, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stuckPath, "pin"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := j.CompactShard(0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stuckPath); err != nil {
		t.Fatalf("stuck segment vanished: %v", err)
	}
	ln := j.lanes[0]
	ln.mu.Lock()
	oldest := ln.oldest
	ln.mu.Unlock()
	if oldest != stuck {
		t.Fatalf("oldest = %d, want %d: advanced past the unremoved segment", oldest, stuck)
	}

	// The blocker clears — as a transient EBUSY/EACCES would — leaving the
	// orphaned segment file behind; the next compaction must sweep it.
	if err := os.RemoveAll(stuckPath); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stuckPath, []byte("orphan"), 0o644); err != nil {
		t.Fatal(err)
	}
	driveRound(t, s, 6, truth)
	if err := j.CompactShard(0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stuckPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("retry sweep left the straggler behind: %v", err)
	}
	// With the straggler retried the live range is exactly the active
	// segment again, and the count did not drift.
	if st := j.Stats(); st.Lanes[0].Segments != 1 {
		t.Fatalf("segment count = %d after retry sweep, want 1", st.Lanes[0].Segments)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTornTailDropped simulates a crash mid-write: garbage appended to the
// newest segment must be detected by the CRC framing, dropped, truncated
// away, and recovery must succeed with the clean prefix.
func TestTornTailDropped(t *testing.T) {
	scores, preds, truth := walPool(500, 3)
	dir := t.TempDir()
	live := session.NewManager(session.ManagerOptions{})
	mustOpen(t, dir, live, Options{Fsync: "off"})
	s, err := live.Create(session.Config{
		ID: "torn", Scores: scores, Preds: preds, Calibrated: true,
		Options: oasis.Options{Strata: 6, Seed: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	committed := len(driveRound(t, s, 12, truth))

	newest := newestLaneSegment(t, dir, 0)
	fi, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	cleanSize := fi.Size()
	f, err := os.OpenFile(newest, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recovered := session.NewManager(session.ManagerOptions{})
	j2 := mustOpen(t, dir, recovered, Options{Fsync: "off"})
	defer j2.Close()
	if st := j2.Stats(); st.ReplayTornBytes != 3 {
		t.Fatalf("torn bytes dropped = %d, want 3", st.ReplayTornBytes)
	}
	// The torn suffix is truncated away on disk, not just skipped: a later
	// recovery must not find it again in a by-then non-final segment.
	if fi, err := os.Stat(newest); err != nil {
		t.Fatal(err)
	} else if fi.Size() != cleanSize {
		t.Fatalf("segment is %d bytes after recovery, want the clean %d", fi.Size(), cleanSize)
	}
	r, err := recovered.Get("torn")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Status().LabelsCommitted; got != committed {
		t.Fatalf("recovered %d labels, want %d", got, committed)
	}
}

// TestZeroedTailDropped simulates a crash that leaves a zero-filled tail
// (delayed allocation): the zeros must read as a torn suffix — an 8-zero-byte
// run is NOT a valid empty record — and recovery must keep the clean prefix.
func TestZeroedTailDropped(t *testing.T) {
	scores, preds, truth := walPool(400, 13)
	dir := t.TempDir()
	live := session.NewManager(session.ManagerOptions{})
	mustOpen(t, dir, live, Options{Fsync: "off"})
	s, err := live.Create(session.Config{
		ID: "z", Scores: scores, Preds: preds, Calibrated: true,
		Options: oasis.Options{Strata: 5, Seed: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	committed := len(driveRound(t, s, 9, truth))
	newest := newestLaneSegment(t, dir, 0)
	f, err := os.OpenFile(newest, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recovered := session.NewManager(session.ManagerOptions{})
	j2 := mustOpen(t, dir, recovered, Options{Fsync: "off"})
	defer j2.Close()
	if st := j2.Stats(); st.ReplayTornBytes != 64 {
		t.Fatalf("torn bytes dropped = %d, want 64", st.ReplayTornBytes)
	}
	r, err := recovered.Get("z")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Status().LabelsCommitted; got != committed {
		t.Fatalf("recovered %d labels, want %d", got, committed)
	}
}

// TestCorruptMidNewestSegmentFatal flips a byte in the middle of the NEWEST
// segment, with fsync-acknowledged records after it: a crash-torn write is
// always a suffix, so valid frames after the damage prove real corruption
// and Open must refuse rather than silently truncate acknowledged commits.
func TestCorruptMidNewestSegmentFatal(t *testing.T) {
	scores, preds, truth := walPool(800, 15)
	dir := t.TempDir()
	live := session.NewManager(session.ManagerOptions{})
	mustOpen(t, dir, live, Options{Fsync: "off"})
	s, err := live.Create(session.Config{
		ID: "m", Scores: scores, Preds: preds, Calibrated: true,
		Options: oasis.Options{Strata: 6, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		driveRound(t, s, 8, truth)
	}
	newest := newestLaneSegment(t, dir, 0)
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0xff // damage with plenty of valid records after it
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, session.NewManager(session.ManagerOptions{}), Options{Fsync: "off"}); err == nil {
		t.Fatal("Open accepted mid-segment corruption in the newest segment")
	} else if !strings.Contains(err.Error(), "corrupt mid-log") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestCorruptMidLogFatal flips a byte in a non-final segment: that is real
// data loss, not a torn tail, and Open must refuse.
func TestCorruptMidLogFatal(t *testing.T) {
	scores, preds, truth := walPool(800, 9)
	dir := t.TempDir()
	live := session.NewManager(session.ManagerOptions{})
	mustOpen(t, dir, live, Options{Fsync: "off", SegmentBytes: 2 << 10})
	s, err := live.Create(session.Config{
		ID: "x", Scores: scores, Preds: preds, Calibrated: true,
		Options: oasis.Options{Strata: 6, Seed: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 10; round++ {
		driveRound(t, s, 8, truth)
	}
	segs := dirInv(t, dir).laneSegs[0]
	if len(segs) < 2 {
		t.Fatalf("need ≥2 segments to corrupt a non-final one, got %d", len(segs))
	}
	victim := filepath.Join(dir, segmentName(0, segs[0]))
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, session.NewManager(session.ManagerOptions{}), Options{Fsync: "off"}); err == nil {
		t.Fatal("Open accepted a corrupt non-final segment")
	} else if !strings.Contains(err.Error(), "corrupt") && !strings.Contains(err.Error(), "replay") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestJournalFailureSticky forces an append failure and checks fail-stop:
// the failed write op errors, every later write op errors fast, Err reports
// the cause, and no state is silently acknowledged past the failure.
func TestJournalFailureSticky(t *testing.T) {
	scores, preds, truth := walPool(600, 5)
	dir := t.TempDir()
	mgr := session.NewManager(session.ManagerOptions{})
	j := mustOpen(t, dir, mgr, Options{Fsync: "always"})
	s, err := mgr.Create(session.Config{
		ID: "sick", Scores: scores, Preds: preds, Calibrated: true,
		Options: oasis.Options{Strata: 5, Seed: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	driveRound(t, s, 4, truth)

	// Sabotage the session's lane file descriptor: the next append fails.
	ln := j.lanes[j.mgr.ShardFor("sick")]
	ln.mu.Lock()
	ln.f.Close()
	ln.mu.Unlock()

	if _, err := s.Propose(4); err == nil {
		t.Fatal("Propose succeeded with a dead journal")
	}
	if j.Err() == nil {
		t.Fatal("journal failure was not sticky")
	}
	if _, err := s.Propose(4); err == nil {
		t.Fatal("Propose kept succeeding after sticky failure")
	}
	if _, err := s.CommitBatch([]int{0}, []bool{true}); err == nil {
		t.Fatal("CommitBatch succeeded with a dead journal")
	}
	if _, err := mgr.Create(session.Config{
		ID: "later", Scores: scores, Preds: preds, Calibrated: true,
		Options: oasis.Options{Strata: 5, Seed: 9},
	}); err == nil {
		t.Fatal("Create succeeded with a dead journal")
	}
}

// TestFsyncPolicies covers policy parsing and the sync counters.
func TestFsyncPolicies(t *testing.T) {
	if _, err := Open(t.TempDir(), session.NewManager(session.ManagerOptions{}), Options{Fsync: "sometimes"}); err == nil {
		t.Fatal("Open accepted a bogus fsync policy")
	}
	if _, err := Open(t.TempDir(), session.NewManager(session.ManagerOptions{}), Options{Fsync: "-5ms"}); err == nil {
		t.Fatal("Open accepted a negative fsync interval")
	}

	scores, preds, truth := walPool(300, 1)
	for _, policy := range []string{"always", "off", "20ms"} {
		t.Run(policy, func(t *testing.T) {
			mgr := session.NewManager(session.ManagerOptions{})
			j := mustOpen(t, t.TempDir(), mgr, Options{Fsync: policy})
			defer j.Close()
			s, err := mgr.Create(session.Config{
				ID: "p", Scores: scores, Preds: preds, Calibrated: true,
				Options: oasis.Options{Strata: 4, Seed: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			driveRound(t, s, 8, truth)
			st := j.Stats()
			if policy == "always" && st.Syncs == 0 {
				t.Fatal("fsync=always recorded no syncs")
			}
			if st.RecordsAppended == 0 || st.LastLSN == 0 {
				t.Fatalf("no records appended: %+v", st)
			}
		})
	}
}

// TestCompactionKeepsConcurrentCreates races Create against Compact and
// verifies every acknowledged session survives recovery. A create whose
// record lands in a segment the compaction folds must be caught by the
// manager's create barrier and included in the snapshot — without it the
// folded segment (and the create with it) is deleted before the session is
// registered, and the session plus all its later labels silently vanish on
// the next boot.
func TestCompactionKeepsConcurrentCreates(t *testing.T) {
	scores, preds, _ := walPool(80, 31)
	dir := t.TempDir()
	live := session.NewManager(session.ManagerOptions{})
	j := mustOpen(t, dir, live, Options{Fsync: "off", SegmentBytes: 1 << 10})

	const workers, perWorker = 4, 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := live.Create(session.Config{
					ID:     fmt.Sprintf("race-%d-%d", w, i),
					Scores: scores, Preds: preds, Calibrated: true,
					Options: oasis.Options{Strata: 4, Seed: uint64(w*100 + i + 1)},
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	compactDone := make(chan error, 1)
	go func() {
		for i := 0; i < 20; i++ {
			if err := j.Compact(); err != nil {
				compactDone <- err
				return
			}
		}
		compactDone <- nil
	}()
	wg.Wait()
	if err := <-compactDone; err != nil {
		t.Fatal(err)
	}

	recovered := session.NewManager(session.ManagerOptions{})
	j2 := mustOpen(t, dir, recovered, Options{Fsync: "off"})
	defer j2.Close()
	if got, want := recovered.Len(), workers*perWorker; got != want {
		t.Fatalf("recovered %d sessions, want %d: a create raced compaction away", got, want)
	}
}

// TestOversizedAppendRejected lowers the record cap and checks an event
// whose payload exceeds it is rejected before it is written, so nothing is
// ever acknowledged that replay cannot read. An oversized create is a
// per-request error — the session layer holds no state for it yet, and one
// hostile pool must not fail-stop the service. An oversized session event
// (here a propose) is sticky per the session.Journal contract: the session
// already applied it in memory, so continuing would drift from the log.
func TestOversizedAppendRejected(t *testing.T) {
	scores, preds, truth := walPool(400, 21)
	dir := t.TempDir()
	mgr := session.NewManager(session.ManagerOptions{})
	j := mustOpen(t, dir, mgr, Options{Fsync: "off"})
	s, err := mgr.Create(session.Config{
		ID: "big", Scores: scores, Preds: preds, Calibrated: true,
		Options: oasis.Options{Strata: 5, Seed: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	committed := len(driveRound(t, s, 6, truth))

	setCap := func(n int) { j.maxRec.Store(int64(n)) }
	setCap(64) // below any event payload in this test
	if _, err := mgr.Create(session.Config{
		ID: "huge", Scores: scores, Preds: preds, Calibrated: true,
		Options: oasis.Options{Strata: 5, Seed: 9},
	}); err == nil || !strings.Contains(err.Error(), "record cap") {
		t.Fatalf("oversized create not rejected: %v", err)
	}
	if err := j.Err(); err != nil {
		t.Fatalf("oversized create poisoned the journal: %v", err)
	}
	setCap(maxRecordSize)
	committed += len(driveRound(t, s, 4, truth)) // service still healthy

	setCap(64)
	if _, err := s.Propose(4); err == nil || !strings.Contains(err.Error(), "record cap") {
		t.Fatalf("oversized append not rejected: %v", err)
	}
	if j.Err() == nil {
		t.Fatal("oversized session append was not a sticky failure")
	}

	recovered := session.NewManager(session.ManagerOptions{})
	j2 := mustOpen(t, dir, recovered, Options{Fsync: "off"})
	defer j2.Close()
	r, err := recovered.Get("big")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Status().LabelsCommitted; got != committed {
		t.Fatalf("recovered %d labels, want %d", got, committed)
	}
}

// stallCreateJournal delegates to a real WAL journal but freezes create
// appends after the record is durably on disk and before Create can
// register the session — the exact window the compaction create barrier
// exists for.
type stallCreateJournal struct {
	inner   *Journal
	entered chan struct{} // receives once the create record is appended
	release chan struct{} // closed to unfreeze the create
}

func (w *stallCreateJournal) Append(ev *session.Event) (uint64, error) {
	lsn, err := w.inner.Append(ev)
	if ev.Type == session.EventCreate {
		w.entered <- struct{}{}
		<-w.release
	}
	return lsn, err
}

func (w *stallCreateJournal) Err() error { return w.inner.Err() }

// TestCompactionWaitsForInflightCreate reproduces the create/compaction race
// deterministically: a create whose record is already on disk but whose
// session is not yet registered is frozen mid-flight while Compact runs.
// Compact must wait on the manager's create barrier before snapshotting —
// otherwise it folds and deletes the segment holding the only copy of the
// create record, the snapshot misses the unregistered session, and the
// acknowledged session (plus every later label) silently vanishes on the
// next boot.
func TestCompactionWaitsForInflightCreate(t *testing.T) {
	scores, preds, truth := walPool(200, 41)
	dir := t.TempDir()
	live := session.NewManager(session.ManagerOptions{})
	j := mustOpen(t, dir, live, Options{Fsync: "off"})

	warm, err := live.Create(session.Config{
		ID: "warm", Scores: scores, Preds: preds, Calibrated: true,
		Options: oasis.Options{Strata: 5, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	driveRound(t, warm, 6, truth)

	stall := &stallCreateJournal{inner: j, entered: make(chan struct{}), release: make(chan struct{})}
	live.SetJournal(stall)
	created := make(chan error, 1)
	go func() {
		_, err := live.Create(session.Config{
			ID: "inflight", Scores: scores, Preds: preds, Calibrated: true,
			Options: oasis.Options{Strata: 5, Seed: 2},
		})
		created <- err
	}()
	<-stall.entered // create record on disk; session not yet registered

	compacted := make(chan error, 1)
	go func() { compacted <- j.Compact() }()
	select {
	case err := <-compacted:
		t.Fatalf("Compact finished (err=%v) while a journaled create was still unregistered", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(stall.release)
	if err := <-created; err != nil {
		t.Fatal(err)
	}
	if err := <-compacted; err != nil {
		t.Fatal(err)
	}
	live.SetJournal(nil) // detach: the recovery below opens its own journal

	recovered := session.NewManager(session.ManagerOptions{})
	j2 := mustOpen(t, dir, recovered, Options{Fsync: "off"})
	defer j2.Close()
	if _, err := recovered.Get("inflight"); err != nil {
		t.Fatalf("the in-flight create was lost to compaction: %v", err)
	}
	if _, err := recovered.Get("warm"); err != nil {
		t.Fatal(err)
	}
}

// TestUnmarshalableCreateNotSticky covers the other pre-write create
// rejection: a config json.Marshal cannot encode (a NaN threshold survives
// pool validation) is a per-request error — nothing was written, the session
// layer holds no state — and must not fail-stop the journal.
func TestUnmarshalableCreateNotSticky(t *testing.T) {
	scores, preds, truth := walPool(300, 27)
	mgr := session.NewManager(session.ManagerOptions{})
	j := mustOpen(t, t.TempDir(), mgr, Options{Fsync: "off"})
	defer j.Close()
	if _, err := mgr.Create(session.Config{
		ID: "nan", Scores: scores, Preds: preds, Calibrated: true,
		Threshold: math.NaN(),
		Options:   oasis.Options{Strata: 5, Seed: 2},
	}); err == nil || !strings.Contains(err.Error(), "marshal create") {
		t.Fatalf("unmarshalable create not rejected at the journal: %v", err)
	}
	if err := j.Err(); err != nil {
		t.Fatalf("unmarshalable create poisoned the journal: %v", err)
	}
	s, err := mgr.Create(session.Config{
		ID: "ok", Scores: scores, Preds: preds, Calibrated: true,
		Options: oasis.Options{Strata: 5, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	driveRound(t, s, 6, truth)
}

// passiveLaneSnapshot is a session-manager snapshot payload holding one
// passive session, as the last build that served the passive method wrote
// it: the session's config, its lease, the passive proposer's state and its
// diagnostics series.
const passiveLaneSnapshot = `{"version":1,"sessions":[{"config":{"id":"legacy","method":"passive","scores":[0.9,0.8,0.3,0.2,0.1,0.05],"preds":[true,true,false,false,false,false],"calibrated":true,"options":{"Alpha":0,"Recall":false,"Epsilon":0,"Strata":0,"StrataBins":0,"Stratifier":0,"PriorStrength":0,"NoPriorDecay":false,"PosteriorEstimate":false,"Seed":5},"leaseTTL":60000000000},"leases":[4],"passive":{"num":1,"pred":1,"true":1,"n":3,"rng":{"s":[2257925110904735759,5580513865578336448,7760565123633837333,7807585761739925291]},"labels":{"1":true,"3":false},"pending":[{"pair":4,"w":1}],"sumW":3,"sumW2":3,"yy":1,"yz":1,"zz":1},"diag":{"series":{"capacity":512,"stride":1,"next":2,"points":[{"seq":0,"labels":1,"wall":1792394272084190211,"estimate":1,"variance":0,"essRatio":1,"terms":1},{"seq":1,"labels":2,"wall":1792394272084195570,"estimate":1,"variance":0,"essRatio":1,"terms":3}]},"state":0}}]}`

// TestOpenRefusesPassiveSessions: the passive session method is gone, and
// its pair stream cannot be replayed onto the one-stratum OASIS sampler. A
// journal that still holds a live passive session — created in the tail,
// or restored from a lane snapshot — refuses to boot with an error naming
// the session and the method, and leaves every file byte-identical. A later
// delete in the tail absolves the session, and the journal boots.
func TestOpenRefusesPassiveSessions(t *testing.T) {
	scores, preds, truth := walPool(400, 29)
	legacy := session.Config{
		ID: "legacy", Method: "passive",
		Scores: scores, Preds: preds, Calibrated: true,
		Options: oasis.Options{Seed: 5},
	}
	for _, tc := range []struct {
		name              string
		snapshot, deleted bool
	}{
		{"tail", false, false},
		{"tail-deleted", false, true},
		{"snapshot", true, false},
		{"snapshot-deleted", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			mgr := session.NewManager(session.ManagerOptions{})
			j := mustOpen(t, dir, mgr, Options{Fsync: "off"})
			keep, err := mgr.Create(session.Config{
				ID: "keep", Scores: scores, Preds: preds, Calibrated: true,
				Options: oasis.Options{Strata: 6, Seed: 7},
			})
			if err != nil {
				t.Fatal(err)
			}
			driveRound(t, keep, 4, truth)
			if !tc.snapshot {
				if _, err := j.Append(&session.Event{Type: session.EventCreate, Session: "legacy", Config: &legacy}); err != nil {
					t.Fatal(err)
				}
				if _, err := j.Append(&session.Event{Type: session.EventPropose, Session: "legacy", N: 2, Pairs: []int{3, 17}}); err != nil {
					t.Fatal(err)
				}
			}
			if tc.deleted {
				if _, err := j.Append(&session.Event{Type: session.EventDelete, Session: "legacy"}); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if tc.snapshot {
				// A lane snapshot at the boundary of the only segment: the
				// segment still replays after the snapshot is restored.
				env, err := json.Marshal(snapshotEnvelope{Version: 2, Lane: new(int), Sessions: json.RawMessage(passiveLaneSnapshot)})
				if err != nil {
					t.Fatal(err)
				}
				seg := dirInv(t, dir).laneSegs[0][0]
				if err := os.WriteFile(filepath.Join(dir, snapshotName(0, seg)), env, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			before := dirBytes(t, dir)
			recovered := session.NewManager(session.ManagerOptions{})
			j2, err := Open(dir, recovered, Options{Fsync: "off"})
			if tc.deleted {
				if err != nil {
					t.Fatalf("journal whose passive session was deleted: %v", err)
				}
				defer j2.Close()
				if _, err := recovered.Get("legacy"); err == nil || recovered.Len() != 1 {
					t.Fatalf("recovered %d sessions, legacy lookup err %v; want just keep", recovered.Len(), err)
				}
				keep, err := recovered.Get("keep")
				if err != nil {
					t.Fatal(err)
				}
				if st := keep.Status(); st.LabelsCommitted != 4 {
					t.Fatalf("keep recovered %d labels, want 4", st.LabelsCommitted)
				}
				return
			}
			if err == nil {
				j2.Close()
				t.Fatal("journal holding a live passive session booted")
			}
			for _, want := range []string{`"legacy"`, `method "passive"`, "7f1a01c", "never deleted"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("boot error does not name %s: %v", want, err)
				}
			}
			after := dirBytes(t, dir)
			if len(after) != len(before) {
				t.Fatalf("directory changed: %d files before, %d after", len(before), len(after))
			}
			for name, b := range before {
				if a, ok := after[name]; !ok || !bytes.Equal(a, b) {
					t.Fatalf("file %s changed or vanished", name)
				}
			}
		})
	}
}
