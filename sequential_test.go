package oasis

// The served engine against the paper's sequential Algorithm 3. The
// reference below is the loop the paper describes, built here from the core
// sampler alone: draw a stratum from v(t), a pair uniformly within it, ask
// for the pair's label once and reuse it on every later draw. Driven one
// proposal at a time, ProposeBatch and CommitLabel must make exactly its
// draws until proposeStormLimit consecutive draws land on labelled pairs,
// where ProposeBatch switches to its direct mode.

import (
	"math"
	"testing"

	"oasis/internal/rng"
	"oasis/internal/sampler"
)

func TestServedLoopIsSequentialUntilStorm(t *testing.T) {
	// Few predicted matches and α = 1: all but ε of v(t) sits on the
	// predicted matches, so once they are labelled a storm comes soon.
	const n = 3000
	r := rng.New(5)
	scores, preds, truth := make([]float64, n), make([]bool, n), make([]bool, n)
	for i := range scores {
		scores[i] = 0.3 * r.Float64()
		if r.Bernoulli(0.01) {
			scores[i] = 0.6 + 0.4*r.Float64()
		}
		preds[i] = scores[i] > 0.6
		truth[i] = r.Bernoulli(scores[i])
	}
	p, err := NewPool(scores, preds, CalibratedScores)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Alpha: 1, Strata: 10, Seed: 31}
	served, err := NewSampler(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewSampler(p, opts) // only its core sampler and strata are used
	if err != nil {
		t.Fatal(err)
	}
	seq := ref.inner
	draw := func() sampler.Draw {
		k, w := seq.DrawStratum()
		members := ref.str.Members(k)
		return sampler.Draw{Pair: int(members[seq.Rand().Intn(len(members))]), Stratum: k, Weight: w}
	}
	same := func(what string, labels int) {
		t.Helper()
		if served.inner.Iterations() != seq.Iterations() || math.Float64bits(served.Estimate()) != math.Float64bits(seq.Estimate()) {
			t.Fatalf("label %d, %s: served %d terms, estimate %v; sequential %d terms, estimate %v",
				labels, what, served.inner.Iterations(), served.Estimate(), seq.Iterations(), seq.Estimate())
		}
	}

	cache := make(map[int]bool)
	for labels := 0; labels < n; labels++ {
		// The sequential loop draws until a fresh pair comes up, folding
		// every re-draw of a labelled pair in for free.
		var d sampler.Draw
		free := 0
		for {
			d = draw()
			label, ok := cache[d.Pair]
			if !ok {
				break
			}
			seq.Commit(d, label)
			if free++; free == proposeStormLimit {
				break
			}
		}
		pairs, err := served.ProposeBatch(1)
		if err != nil {
			t.Fatal(err)
		}
		if free == proposeStormLimit {
			// Both loops made the same free draws; the served engine's next
			// proposal comes from direct mode.
			same("at the storm", labels)
			if labels < 20 {
				t.Fatalf("storm after %d labels; the comparison covers too little", labels)
			}
			return
		}
		if pairs[0] != d.Pair {
			t.Fatalf("label %d: served proposed pair %d, sequential drew %d", labels, pairs[0], d.Pair)
		}
		terms, err := served.CommitLabelTerms(d.Pair, truth[d.Pair])
		if err != nil {
			t.Fatal(err)
		}
		cache[d.Pair] = truth[d.Pair]
		seq.Commit(d, truth[d.Pair])
		if len(terms) != 1 || terms[0] != (DrawTerm{Stratum: d.Stratum, Weight: d.Weight}) {
			t.Fatalf("label %d: served terms %+v, sequential draw %+v", labels, terms, d)
		}
		same("after its commit", labels)
	}
	t.Fatal("no run of free draws reached the storm limit")
}
