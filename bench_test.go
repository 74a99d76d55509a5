package oasis_test

// This file regenerates every table and figure of the paper's evaluation
// (§6) as testing.B benchmarks, plus ablation benches for the sampler's
// design choices (ε, prior strength and decay, stratifier, posterior
// estimate, IS alias sampling). Each benchmark prints the regenerated table
// to stdout on its first iteration and reports a headline metric.
//
// Scale is controlled by environment variables (see internal/paperexp):
//
//	OASIS_BENCH_SCALE  pool/budget multiplier (default 0.25; 1.0 = paper scale)
//	OASIS_BENCH_RUNS   repeats per error curve (default 20; paper uses 1000)
//	OASIS_BENCH_SEED   base seed (default 1)
//
// Run all of them with:  go test -bench=. -benchmem .

import (
	"io"
	"os"
	"testing"

	"oasis/internal/paperexp"
)

// benchOut returns stdout for the first benchmark iteration and io.Discard
// afterwards, so tables are printed exactly once regardless of b.N.
func benchOut(i int) io.Writer {
	if i == 0 {
		return os.Stdout
	}
	return io.Discard
}

func BenchmarkTable1Datasets(b *testing.B) {
	cfg := paperexp.FromEnv()
	for i := 0; i < b.N; i++ {
		if err := paperexp.Table1(benchOut(i), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Pools(b *testing.B) {
	cfg := paperexp.FromEnv()
	for i := 0; i < b.N; i++ {
		if err := paperexp.Table2(benchOut(i), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3Runtime(b *testing.B) {
	cfg := paperexp.FromEnv()
	for i := 0; i < b.N; i++ {
		if err := paperexp.Table3(benchOut(i), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1Strata(b *testing.B) {
	cfg := paperexp.FromEnv()
	for i := 0; i < b.N; i++ {
		if err := paperexp.Figure1(benchOut(i), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2LabelBudget regenerates the error-vs-budget curves of
// Figure 2 for each of the six pools as sub-benchmarks.
func BenchmarkFigure2LabelBudget(b *testing.B) {
	cfg := paperexp.FromEnv()
	for _, name := range []string{
		"Amazon-GoogleProducts", "restaurant", "DBLP-ACM",
		"Abt-Buy", "cora", "tweets100k",
	} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := paperexp.Figure2(benchOut(i), cfg, name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFigure3Calibration(b *testing.B) {
	cfg := paperexp.FromEnv()
	for i := 0; i < b.N; i++ {
		if err := paperexp.Figure3(benchOut(i), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4Convergence(b *testing.B) {
	cfg := paperexp.FromEnv()
	for i := 0; i < b.N; i++ {
		if err := paperexp.Figure4(benchOut(i), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5Classifiers(b *testing.B) {
	cfg := paperexp.FromEnv()
	for i := 0; i < b.N; i++ {
		if err := paperexp.Figure5(benchOut(i), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeadlineSavings(b *testing.B) {
	cfg := paperexp.FromEnv()
	for i := 0; i < b.N; i++ {
		if err := paperexp.HeadlineSavings(benchOut(i), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationEpsilon(b *testing.B) {
	cfg := paperexp.FromEnv()
	for i := 0; i < b.N; i++ {
		if err := paperexp.AblationEpsilon(benchOut(i), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPriorStrength(b *testing.B) {
	cfg := paperexp.FromEnv()
	for i := 0; i < b.N; i++ {
		if err := paperexp.AblationPriorStrength(benchOut(i), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPriorDecay(b *testing.B) {
	cfg := paperexp.FromEnv()
	for i := 0; i < b.N; i++ {
		if err := paperexp.AblationPriorDecay(benchOut(i), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationStratifier(b *testing.B) {
	cfg := paperexp.FromEnv()
	for i := 0; i < b.N; i++ {
		if err := paperexp.AblationStratifier(benchOut(i), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPosteriorEstimate(b *testing.B) {
	cfg := paperexp.FromEnv()
	for i := 0; i < b.N; i++ {
		if err := paperexp.AblationPosteriorEstimate(benchOut(i), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationISAlias(b *testing.B) {
	cfg := paperexp.FromEnv()
	for i := 0; i < b.N; i++ {
		if err := paperexp.AblationISAlias(benchOut(i), cfg); err != nil {
			b.Fatal(err)
		}
	}
}
