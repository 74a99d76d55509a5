package oasis_test

// Microbenchmarks for the public propose/commit hot path served by
// internal/server: batched proposals from a K=30 stratified pool, and the
// propose→commit cycle. Tracked in BENCH_core.json via `make bench-json`.

import (
	"fmt"
	"testing"

	"oasis"
)

// benchSampler builds a sampler over an n-pair synthetic pool with K=30
// strata (the paper's default) and a warmed-up posterior.
func benchSampler(b *testing.B, n, warm int) (*oasis.Sampler, []bool) {
	b.Helper()
	scores, preds, truth, _ := syntheticScores(n, 3)
	p, err := oasis.NewPool(scores, preds, oasis.CalibratedScores)
	if err != nil {
		b.Fatal(err)
	}
	s, err := oasis.NewSampler(p, oasis.Options{Strata: 30, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	for s.LabelsCommitted() < warm {
		pairs, err := s.ProposeBatch(warm - s.LabelsCommitted())
		if err != nil {
			b.Fatal(err)
		}
		for _, pair := range pairs {
			if err := s.CommitLabel(pair, truth[pair]); err != nil {
				b.Fatal(err)
			}
		}
	}
	return s, truth
}

// BenchmarkProposeBatch measures drawing a batch of n proposals with no
// intervening commits — the GET /propose hot path. Proposals are released
// after each batch so the proposable supply (and the instrumental
// distribution) is steady; the per-op metric is one full batch.
func BenchmarkProposeBatch(b *testing.B) {
	for _, n := range []int{1, 64, 1024} {
		b.Run(benchName(n), func(b *testing.B) {
			s, _ := benchSampler(b, 100_000, 200)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pairs, err := s.ProposeBatch(n)
				if err != nil {
					b.Fatal(err)
				}
				if len(pairs) != n {
					b.Fatalf("short batch: %d of %d", len(pairs), n)
				}
				b.StopTimer()
				for _, pair := range pairs {
					s.Release(pair)
				}
				b.StartTimer()
			}
		})
	}
}

func benchName(n int) string { return fmt.Sprintf("n=%d", n) }

// BenchmarkProposeCommit measures the full cycle: propose a batch of 64,
// commit every label (which re-adapts the instrumental distribution). The
// sampler is rebuilt off the clock when the pool nears exhaustion.
func BenchmarkProposeCommit(b *testing.B) {
	const n = 64
	s, truth := benchSampler(b, 200_000, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.LabelsCommitted() > 150_000 {
			b.StopTimer()
			s, truth = benchSampler(b, 200_000, 200)
			b.StartTimer()
		}
		pairs, err := s.ProposeBatch(n)
		if err != nil {
			b.Fatal(err)
		}
		for _, pair := range pairs {
			if err := s.CommitLabel(pair, truth[pair]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkProposeNearExhaustion measures the propose→commit cycle at
// batch n with 80% of a 20k-pair pool labelled, where most with-replacement
// draws land on labelled pairs: each is a free draw that commits a term, and
// a run of proposeStormLimit of them sends the proposal to direct mode.
// Once another 4% of the pool is labelled, the sampler is restored to its
// 80% state off the clock, so every op runs in the same regime.
func BenchmarkProposeNearExhaustion(b *testing.B) {
	const pool = 20_000
	for _, n := range []int{1, 16} {
		b.Run(benchName(n), func(b *testing.B) {
			s, truth := benchSampler(b, pool, pool*8/10)
			warm := s.State()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s.LabelsCommitted() >= pool*84/100 {
					b.StopTimer()
					if err := s.RestoreState(warm); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				pairs, err := s.ProposeBatch(n)
				if err != nil {
					b.Fatal(err)
				}
				for _, pair := range pairs {
					if err := s.CommitLabel(pair, truth[pair]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
