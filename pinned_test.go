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
	"encoding/json"
	"errors"
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

// proposeRounds drives rounds of ProposeBatch(16) + CommitLabel, releasing
// the first proposal of every 7th round instead of labelling it, and hashes
// every proposal into h. With rounds < 0 it runs until the pool is labelled.
// outstanding, when not nil, is called after each round's proposals and
// before its labels.
func proposeRounds(t *testing.T, s *oasis.Sampler, truth []bool, rounds int, h hash.Hash64, outstanding func(round int)) {
	t.Helper()
	for round := 0; rounds < 0 || round < rounds; round++ {
		batch, err := s.ProposeBatch(16)
		if err != nil && (rounds >= 0 || !errors.Is(err, oasis.ErrExhausted)) {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(batch) == 0 {
			return // exhausted, and every round ends with nothing outstanding
		}
		if outstanding != nil {
			outstanding(round)
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
}

// proposeTrace runs 300 rounds of proposeRounds on a fresh sampler and
// returns the hash of every proposal with the bits of the final estimate.
func proposeTrace(t *testing.T, p *oasis.Pool, truth []bool, opts oasis.Options) (uint64, uint64) {
	t.Helper()
	s, err := oasis.NewSampler(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	proposeRounds(t, s, truth, 300, h, nil)
	return h.Sum64(), math.Float64bits(s.Estimate())
}

// stateHash is the FNV-1a hash of the sampler's JSON snapshot, the bytes WAL
// compaction writes.
func stateHash(t *testing.T, s *oasis.Sampler) uint64 {
	t.Helper()
	b, err := json.Marshal(s.State())
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
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

	// None of the runs above leaves the with-replacement draw path. On this
	// 3,000-pair pool, run until every pair is labelled, ProposeBatch's direct
	// mode makes 236 of the proposals, the first at label 2,078. Pin them with
	// the snapshot bytes, taken once with round 150's batch outstanding (16
	// proposals, one with a queued re-draw) and once at the end.
	t.Run("direct-mode-exhaustion", func(t *testing.T) {
		scores, preds, truth, _ := syntheticScores(3000, 4242)
		p, err := oasis.NewPool(scores, preds, oasis.CalibratedScores)
		if err != nil {
			t.Fatal(err)
		}
		s, err := oasis.NewSampler(p, oasis.Options{Strata: 30, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var mid uint64
		proposeRounds(t, s, truth, -1, h, func(round int) {
			if round == 150 {
				mid = stateHash(t, s)
			}
		})
		if n := s.LabelsCommitted(); n != len(truth) {
			t.Fatalf("run ended with %d of %d pairs labelled", n, len(truth))
		}
		const wantHash, wantBits, wantMid, wantEnd = 0x36252c87b70c59e1, 0x3fc9f1fd8974845b, 0xbd8a8bf2d75b6d19, 0x16bfb78b3073a39c
		got, bits, end := h.Sum64(), math.Float64bits(s.Estimate()), stateHash(t, s)
		if got != wantHash || bits != wantBits || mid != wantMid || end != wantEnd {
			t.Errorf("proposal hash %#x, estimate bits %#x (%v), state hashes %#x, %#x; pinned %#x, %#x, %#x, %#x",
				got, bits, s.Estimate(), mid, end, uint64(wantHash), uint64(wantBits), uint64(wantMid), uint64(wantEnd))
		}
	})

	// Sampler.Run is the paper's sequential Algorithm 3: pin every oracle
	// call (a first query of a pair, in order) and the final estimate.
	t.Run("oasis-run", func(t *testing.T) {
		s, err := oasis.NewSampler(p, oasis.Options{Strata: 30, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		res, err := s.Run(func(i int) bool { writePair(h, i); return truth[i] }, 2000)
		if err != nil {
			t.Fatal(err)
		}
		const wantHash, wantBits = 0x986bd2ad2ed753d0, 0x3fc9c79a9511b4ad
		if got, bits := h.Sum64(), math.Float64bits(res.FMeasure); got != wantHash || bits != wantBits {
			t.Errorf("oracle hash %#x, estimate bits %#x (%v); pinned %#x, %#x",
				got, bits, res.FMeasure, uint64(wantHash), uint64(wantBits))
		}
	})

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

	cora := func(t *testing.T) *erbench.BuiltPool {
		t.Helper()
		b, err := erbench.BuildPool("cora", erbench.PoolConfig{Scale: 0.05, Calibrate: true, Seed: 12345, TrainPairs: 1200})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	harness := erbench.HarnessConfig{Budget: 300, Runs: 4, Seed: 11, Workers: 2}

	t.Run("erbench-final-error", func(t *testing.T) {
		mean, _, err := erbench.FinalError(cora(t), erbench.OASIS, harness)
		if err != nil {
			t.Fatal(err)
		}
		const wantBits = 0x3fa7132282db8e84
		if bits := math.Float64bits(mean); bits != wantBits {
			t.Errorf("mean |error| bits %#x (%v); pinned %#x", bits, mean, uint64(wantBits))
		}
	})

	// The baselines and the Figure 4 trajectory run through the offline
	// harness loop, which the proposal pins above never touch: pin the bits
	// of every error-curve point with the mean draw count, and the F and
	// KL(v*‖v̂) series of one convergence run.
	t.Run("erbench-offline-paths", func(t *testing.T) {
		b := cora(t)
		for _, tc := range []struct {
			kind             erbench.MethodKind
			errHash, itsBits uint64
		}{
			{erbench.Passive, 0x887fde78a9f34136, 0x4072f40000000000},
			{erbench.Stratified, 0x759dae720dfb7d28, 0x4072fc0000000000},
			{erbench.ImportanceSampling, 0x297a442ab2c768a0, 0x40735c0000000000},
			{erbench.ImportanceSamplingNaive, 0x1999cf16b3a74516, 0x4073300000000000},
		} {
			c, err := erbench.RunCurves(b, tc.kind, harness)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			for _, e := range c.MeanAbsErr {
				writePair(h, int(math.Float64bits(e)))
			}
			if got, its := h.Sum64(), math.Float64bits(c.MeanIterations); got != tc.errHash || its != tc.itsBits {
				t.Errorf("%v: error-curve hash %#x, mean draws bits %#x (%v); pinned %#x, %#x",
					tc.kind, got, its, c.MeanIterations, tc.errHash, tc.itsBits)
			}
		}
		conv, err := erbench.RunConvergence(b, harness, 10)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for i := range conv.FError {
			writePair(h, conv.Labels[i])
			writePair(h, int(math.Float64bits(conv.FError[i])))
			writePair(h, int(math.Float64bits(conv.KL[i])))
		}
		const wantConv = 0x7119da9d7e979c40
		if got := h.Sum64(); got != wantConv {
			t.Errorf("convergence series hash %#x over %d points; pinned %#x", got, len(conv.FError), uint64(wantConv))
		}
	})
}
