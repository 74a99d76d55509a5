package core

// Golden-sequence equivalence: the optimized draw path — cached v(t) behind
// a commit-dirty flag, prepared O(log K) stratum sampler, precomputed
// importance weights — must reproduce the unoptimized sequential Algorithm 3
// (rebuild v from scratch every draw, O(K) validated inverse-CDF scan)
// bit-for-bit: same seed, same draw sequence, same final estimate. This is
// the correctness contract behind BenchmarkDraw's speedup.

import (
	"testing"

	"oasis/internal/rng"
	"oasis/internal/sampler"
	"oasis/internal/strata"
)

// refMembers lists each stratum's members by scanning the pool indices in
// order and keeping those in the stratum, independently of the layout's
// permutation: the draw path must index the same ascending member order.
func refMembers(s *strata.Strata) [][]int {
	members := make([][]int, s.K())
	for i := 0; i < s.N(); i++ {
		k := s.StratumOf(i)
		members[k] = append(members[k], i)
	}
	return members
}

// refDraw performs one draw exactly the way the seed implementation did:
// recompute the instrumental distribution from the posterior, then draw the
// stratum with the per-call-validated linear inverse-CDF scan and the pair
// uniformly from the stratum's member list (from refMembers). It bypasses
// every cache.
func refDraw(t *testing.T, o *Sampler, members [][]int) sampler.Draw {
	t.Helper()
	o.computeV()
	kStar, err := o.rng.Categorical(o.v)
	if err != nil {
		t.Fatal(err)
	}
	i := members[kStar][o.rng.Intn(len(members[kStar]))]
	return sampler.Draw{
		Pair:    i,
		Stratum: kStar,
		Weight:  o.str.Weights[kStar] / o.v[kStar],
	}
}

func requireSameDraw(t *testing.T, step int, opt, ref sampler.Draw) {
	t.Helper()
	if opt != ref {
		t.Fatalf("step %d: optimized draw %+v != reference draw %+v", step, opt, ref)
	}
}

func TestGoldenSequence(t *testing.T) {
	p := makePool(20_000, 40, 5)
	s, err := strata.CSF(p, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Alpha: 0.5}
	newSampler := func(seed uint64) *Sampler {
		o, err := New(p, s, cfg, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	opt := newSampler(99) // optimized: cached v(t), prepared sampler
	ref := newSampler(99) // reference: rebuild + Categorical every draw
	members := refMembers(s)

	label := func(pair int) bool { return p.TruthProb[pair] >= 0.5 }

	// Phase 1: the fully adaptive regime — every draw is committed, so the
	// cache is invalidated and rebuilt once per step.
	for step := 0; step < 300; step++ {
		d := draw(opt)
		rd := refDraw(t, ref, members)
		requireSameDraw(t, step, d, rd)
		opt.Commit(d, label(d.Pair))
		ref.Commit(rd, label(rd.Pair))
	}

	// Phase 2: the batched-proposal regime — many draws, zero commits. The
	// optimized sampler serves every draw from the cache built at the first
	// one; the reference rebuilds v each time. If any commit-free code path
	// mutated the posterior, the sequences would split here.
	for step := 0; step < 500; step++ {
		d := draw(opt)
		requireSameDraw(t, step, d, refDraw(t, ref, members))
	}

	// Phase 3: snapshot round-trip. Restoring into a sampler whose own
	// stream and caches are elsewhere must rebuild the cached v(t) and
	// continue the reference sequence exactly.
	st := opt.State()
	resumed := newSampler(123456) // different seed: Restore must overwrite it
	for i := 0; i < 7; i++ {      // desync its caches and stream first
		resumed.Commit(draw(resumed), i%2 == 0)
	}
	if err := resumed.Restore(st); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 300; step++ {
		d := draw(resumed)
		rd := refDraw(t, ref, members)
		requireSameDraw(t, step, d, rd)
		resumed.Commit(d, label(d.Pair))
		ref.Commit(rd, label(rd.Pair))
	}

	if got, want := resumed.Estimate(), ref.Estimate(); got != want {
		t.Fatalf("final estimate: optimized %v != reference %v", got, want)
	}
	if got, want := resumed.Iterations(), ref.Iterations(); got != want {
		t.Fatalf("iterations: optimized %d != reference %d", got, want)
	}
}

// TestGoldenSequencePosteriorEstimate repeats the equivalence check in
// PosteriorEstimate mode, whose working F̂ follows a different code path
// (the plug-in estimate) when building v(t).
func TestGoldenSequencePosteriorEstimate(t *testing.T) {
	p := makePool(5_000, 40, 9)
	s, err := strata.CSF(p, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Alpha: 0.5, PosteriorEstimate: true}
	opt, err := New(p, s, cfg, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(p, s, cfg, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	members := refMembers(s)
	for step := 0; step < 400; step++ {
		d := draw(opt)
		rd := refDraw(t, ref, members)
		requireSameDraw(t, step, d, rd)
		lab := p.TruthProb[d.Pair] >= 0.5
		opt.Commit(d, lab)
		ref.Commit(rd, lab)
	}
	if got, want := opt.Estimate(), ref.Estimate(); got != want {
		t.Fatalf("final estimate: optimized %v != reference %v", got, want)
	}
}

// TestDrawStratumWeightMatchesInstrumental checks the precomputed importance
// weights stay in lockstep with the cached distribution across commits.
func TestDrawStratumWeightMatchesInstrumental(t *testing.T) {
	p := makePool(3_000, 30, 2)
	o := newOASIS(t, p, 15, Config{Alpha: 0.5}, 8)
	for step := 0; step < 200; step++ {
		v := o.InstrumentalCached() // refreshes the cache
		d := draw(o)
		if want := o.str.Weights[d.Stratum] / v[d.Stratum]; d.Weight != want {
			t.Fatalf("step %d: weight %v, want ω/v = %v", step, d.Weight, want)
		}
		if step%3 == 0 {
			o.Commit(d, step%6 == 0)
		}
	}
}
