package experiment

import (
	"math"

	"oasis"
	"oasis/internal/oracle"
	"oasis/internal/pool"
	"oasis/internal/sampler"
	"oasis/internal/stats"
	"oasis/internal/strata"
)

// Convergence holds the single-run diagnostics of Figure 4: at sampled
// iterations, the absolute error of the F-measure estimate, of the stratum
// oracle-probability estimates π̂, of the instrumental distribution v̂
// against the population-optimal v*, and the KL divergence from v* to v̂.
type Convergence struct {
	// Labels[i] is the number of distinct labels consumed at sample i.
	Labels []int
	// FError[i] = |F̂ − F|.
	FError []float64
	// PiError[i] = mean_k |π̂_k − π_k|.
	PiError []float64
	// VError[i] = mean_k |v̂_k − v*_k|.
	VError []float64
	// KL[i] = KL(v* ‖ v̂) in nats.
	KL []float64
}

// RunConvergence runs one OASIS trajectory on a fresh served engine s,
// built on the stratification st, against the pool's ground-truth oracle.
// It records diagnostics every `every` distinct labels (minimum 1) and
// stops after `budget` labels.
func RunConvergence(s *oasis.Sampler, p *pool.Pool, st *strata.Strata,
	alpha float64, budget, every int, orc oracle.Oracle) (*Convergence, error) {
	if every < 1 {
		every = 1
	}
	if budget > p.N() {
		budget = p.N()
	}
	trueF := p.TrueFMeasure(alpha)
	truePi := strata.TruePi(p, st)
	trueV := strata.TrueOptimalV(p, st, alpha)

	conv := &Convergence{}
	record := func(labels int) error {
		conv.Labels = append(conv.Labels, labels)
		conv.FError = append(conv.FError, math.Abs(s.Estimate()-trueF))
		conv.PiError = append(conv.PiError, stats.MeanAbs(sub(s.PosteriorMean(), truePi)))
		v := s.Instrumental()
		conv.VError = append(conv.VError, stats.MeanAbs(sub(v, trueV)))
		kl, err := stats.KLDivergence(trueV, v)
		if err != nil {
			return err
		}
		conv.KL = append(conv.KL, kl)
		return nil
	}

	nextRecord := every
	labels, _, err := sampler.Run(sampler.Served{Proposer: s}, orc, budget, func(labels int) error {
		if labels < nextRecord {
			return nil
		}
		nextRecord = labels + every
		return record(labels)
	})
	if err != nil {
		return nil, err
	}
	// Final state.
	if len(conv.Labels) == 0 || conv.Labels[len(conv.Labels)-1] != labels {
		if err := record(labels); err != nil {
			return nil, err
		}
	}
	return conv, nil
}

func sub(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}
