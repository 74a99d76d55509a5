package oasis_test

// Pinned sequences. The golden tests compare the optimized draw path with a
// reference implementation built from the same code, so a change that moves
// both in step (a different within-stratum member order, a different
// stratification, a different summation order) passes them unnoticed. The
// constants below were recorded once and are compared across commits: every
// proposal (as an FNV-1a hash) and the exact bits of the final estimate.
// A change that alters them changes what the sampler does; it must not
// happen in a refactor.

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"oasis"
	"oasis/erbench"
)

// writePair folds one pool index into h.
func writePair(h hash.Hash64, pair int) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(pair))
	h.Write(buf[:])
}

// pinnedPool is the seeded generated pool every pinned OASIS run draws from.
func pinnedPool(t *testing.T) (*oasis.Pool, []bool) {
	t.Helper()
	scores, preds, truth, _ := syntheticScores(20_000, 4242)
	p, err := oasis.NewPool(scores, preds, oasis.CalibratedScores)
	if err != nil {
		t.Fatal(err)
	}
	return p, truth
}

// proposeTrace drives 300 rounds of ProposeBatch(16) + CommitLabel, releasing
// the first proposal of every 7th round instead of labelling it, and returns
// the hash of every proposal with the bits of the final estimate.
func proposeTrace(t *testing.T, p *oasis.Pool, truth []bool, opts oasis.Options) (uint64, uint64) {
	t.Helper()
	s, err := oasis.NewSampler(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for round := 0; round < 300; round++ {
		batch, err := s.ProposeBatch(16)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i, pair := range batch {
			writePair(h, pair)
			if round%7 == 6 && i == 0 {
				if !s.Release(pair) {
					t.Fatalf("round %d: release of pair %d failed", round, pair)
				}
				continue
			}
			if err := s.CommitLabel(pair, truth[pair]); err != nil {
				t.Fatalf("round %d: commit %d: %v", round, pair, err)
			}
		}
	}
	return h.Sum64(), math.Float64bits(s.Estimate())
}

func TestPinnedSequences(t *testing.T) {
	p, truth := pinnedPool(t)
	for _, tc := range []struct {
		name       string
		opts       oasis.Options
		hash, bits uint64
	}{
		{"csf-k30", oasis.Options{Strata: 30, Seed: 7}, 0x640731e0d1d2ba82, 0x3fc950fba3e13b94},
		{"csf-k60", oasis.Options{Strata: 60, Seed: 8}, 0x5714d0b4f08af550, 0x3fc92f9217fbed39},
		{"equal-size-k30", oasis.Options{Strata: 30, Stratifier: oasis.EqualSizeStratifier, Seed: 9}, 0x39780b8b5e1ccb9e, 0x3fc871b0e7178160},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, bits := proposeTrace(t, p, truth, tc.opts)
			if h != tc.hash || bits != tc.bits {
				t.Errorf("proposal hash %#x, estimate bits %#x (%v); pinned %#x, %#x",
					h, bits, math.Float64frombits(bits), tc.hash, tc.bits)
			}
		})
	}

	t.Run("stratified-baseline", func(t *testing.T) {
		m, err := oasis.NewStratifiedSampler(p, oasis.Options{Seed: 10})
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		res, err := m.Run(func(i int) bool { writePair(h, i); return truth[i] }, 2000)
		if err != nil {
			t.Fatal(err)
		}
		const wantHash, wantBits = 0x89a054f470aec380, 0x3fc978b6adea300a
		if got, bits := h.Sum64(), math.Float64bits(res.FMeasure); got != wantHash || bits != wantBits {
			t.Errorf("oracle hash %#x, estimate bits %#x (%v); pinned %#x, %#x",
				got, bits, res.FMeasure, uint64(wantHash), uint64(wantBits))
		}
	})

	t.Run("erbench-final-error", func(t *testing.T) {
		b, err := erbench.BuildPool("cora", erbench.PoolConfig{Scale: 0.05, Calibrate: true, Seed: 12345, TrainPairs: 1200})
		if err != nil {
			t.Fatal(err)
		}
		mean, _, err := erbench.FinalError(b, erbench.OASIS, erbench.HarnessConfig{Budget: 300, Runs: 4, Seed: 11, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		const wantBits = 0x3fa7132282db8e84
		if bits := math.Float64bits(mean); bits != wantBits {
			t.Errorf("mean |error| bits %#x (%v); pinned %#x", bits, mean, uint64(wantBits))
		}
	})
}
