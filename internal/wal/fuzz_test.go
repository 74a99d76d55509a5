package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"oasis"
	"oasis/internal/session"
)

// fuzzMeta writes a wal-meta.json declaring a 2-lane journal into dir.
func fuzzMeta(tb testing.TB, dir string) {
	tb.Helper()
	if err := os.WriteFile(filepath.Join(dir, metaName), []byte(`{"version":2,"lanes":2}`), 0o644); err != nil {
		tb.Fatal(err)
	}
}

// FuzzWALReplay throws arbitrary bytes at the replay path as lane 0 of a
// two-lane v2 journal: Open must never panic or over-allocate, whatever the framing,
// shard tags, JSON or event semantics of the input — at worst it returns an
// error. The seed corpus is a real little two-shard log (create / propose /
// commit / release / restart records across two lanes) plus hand-built
// hostile frames — mixed-lane torn tails, an out-of-range shard tag, a
// record tagged for the other lane — so mutations explore the deep replay
// paths, not just the CRC gate.
func FuzzWALReplay(f *testing.F) {
	seedDir := f.TempDir()
	mgr := session.NewManager(session.ManagerOptions{Shards: 2})
	j, err := Open(seedDir, mgr, Options{Fsync: "off"})
	if err != nil {
		f.Fatal(err)
	}
	scores, preds, truth := walPool(60, 2)
	// Two sessions in different shards, so the seed log has records in both
	// lanes. ShardOf is deterministic, so scan a few IDs for one per shard.
	var ids []string
	for i := 0; len(ids) < 2; i++ {
		id := fmt.Sprintf("seed-%d", i)
		if session.ShardOf(id, 2) == len(ids) {
			ids = append(ids, id)
		}
	}
	for k, id := range ids {
		s, err := mgr.Create(session.Config{
			ID: id, Scores: scores, Preds: preds, Calibrated: true,
			Options: oasis.Options{Strata: 4, Seed: uint64(3 + k)},
		})
		if err != nil {
			f.Fatal(err)
		}
		props, err := s.Propose(8)
		if err != nil {
			f.Fatal(err)
		}
		pairs := make([]int, 0, len(props))
		labels := make([]bool, 0, len(props))
		for _, p := range props[:4] {
			pairs = append(pairs, p.Pair)
			labels = append(labels, truth[p.Pair])
		}
		if _, err := s.CommitBatch(pairs, labels); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	inv, err := readDirState(seedDir)
	if err != nil {
		f.Fatal(err)
	}
	for lane, segs := range inv.laneSegs {
		for _, idx := range segs {
			data, err := os.ReadFile(filepath.Join(seedDir, segmentName(lane, idx)))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
			if len(data) > 10 {
				f.Add(data[:len(data)-7]) // torn tail
			}
		}
	}
	// Hostile hand-built frames: an out-of-range shard tag (7 in a 2-lane
	// journal), a CRC-valid record tagged for the other lane, and a
	// mixed-lane torn pile-up (valid lane-0 record + torn lane-1 record).
	payload := []byte(`{"lsn":1,"type":"restart"}`)
	f.Add(appendRecord(nil, 7, payload))
	f.Add(appendRecord(nil, 1, payload))
	torn := appendRecord(nil, 1, payload)
	f.Add(append(appendRecord(nil, 0, payload), torn[:len(torn)-3]...))
	f.Add([]byte{})
	f.Add([]byte("not a wal segment at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Tripwire: a replay that does not finish promptly is a hang bug;
		// panic with the input so the fuzzer saves it instead of stalling CI.
		timer := time.AfterFunc(30*time.Second, func() {
			panic(fmt.Sprintf("wal replay hung on input %x", data))
		})
		defer timer.Stop()

		// The bytes as lane 0 of a two-lane v2 journal (lane 1 present but
		// empty, as after a crash at first boot).
		dir := t.TempDir()
		fuzzMeta(t, dir)
		if err := os.WriteFile(filepath.Join(dir, segmentName(0, 1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segmentName(1, 1)), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		mgr := session.NewManager(session.ManagerOptions{Shards: 2})
		j, err := Open(dir, mgr, Options{Fsync: "off"})
		if err != nil {
			return // rejected: fine, as long as it did not panic
		}
		for _, st := range mgr.List() {
			if st.PendingProposals != 0 {
				t.Fatalf("recovered session %q has pending proposals", st.ID)
			}
		}
		j.Close()
	})
}
