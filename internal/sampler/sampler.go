// Package sampler defines what an evaluation method is and the one loop that
// drives every method offline. A Method is a sampling policy only: it draws a
// record pair with its importance weight, and folds that pair's label in when
// it arrives. Run owns the rest of the paper's sequential Algorithm 3: the
// label cache, the budget of distinct labels (footnote 5), the oracle calls
// and the draw cap.
//
// The package also implements the three baseline methods the paper compares
// OASIS against (§6.2): Passive uniform sampling, proportional Stratified
// sampling (Druck & McCallum), and static Importance Sampling (Sawade et
// al.). OASIS runs under the same loop through Served, which adapts the
// served engine (oasis.Sampler) to a Method.
package sampler

import (
	"errors"

	"oasis/internal/oracle"
)

// Draw is one with-replacement draw, carrying everything needed to fold a
// label into the estimate later: the drawn pair, its stratum, and the
// importance weight frozen at draw time (Algorithm 3 line 6). Separating the
// draw from the label lets callers batch proposals and apply labels
// asynchronously without changing the estimator: each draw's weight uses the
// instrumental distribution that produced it, exactly as in the sequential
// algorithm. Methods without strata or weights leave those fields zero.
type Draw struct {
	// Pair is the drawn pool index.
	Pair int
	// Stratum is the stratum the pair was drawn from.
	Stratum int
	// Weight is the importance weight at draw time.
	Weight float64
}

// Method is one sequential evaluation method. Draw draws one pair (with
// replacement) without asking for its label; Commit folds the label of a
// previous draw into the estimate. Estimate returns the current F̂ (NaN while
// undefined).
type Method interface {
	Name() string
	Draw() Draw
	Commit(d Draw, label bool)
	Estimate() float64
}

// Proposer is the served OASIS engine (oasis.Sampler). ProposeBatch folds
// its with-replacement re-draws of labelled pairs in itself and returns
// only pairs that are neither labelled nor outstanding.
type Proposer interface {
	ProposeBatch(n int) ([]int, error)
	CommitLabel(pair int, label bool) error
	Estimate() float64
}

// Served adapts a Proposer to a Method: a draw is one ProposeBatch(1) and a
// commit its CommitLabel. Run's label cache never hits, so Run's draw count
// is a proposal count. Cap the budget at the proposable supply: Draw on an
// exhausted engine panics.
type Served struct{ Proposer }

// Name identifies the method in reports.
func (Served) Name() string { return "OASIS" }

// Draw proposes one pair.
func (m Served) Draw() Draw {
	pairs, _ := m.ProposeBatch(1)
	return Draw{Pair: pairs[0]}
}

// Commit labels the proposed pair, which cannot fail.
func (m Served) Commit(d Draw, label bool) { _ = m.CommitLabel(d.Pair, label) }

// ErrStalled is returned by Run when the draw cap ends a run before its
// label budget is spent.
var ErrStalled = errors.New("sampler: method stalled before exhausting the label budget")

// Run drives m until budget distinct pairs are labelled. Sampling is with
// replacement: the first draw of a pair asks the oracle and charges the
// budget, and every later draw of it folds in the cached label for free, so
// each pair has one realised label per run even under a noisy oracle. A run
// may therefore take more draws than labels; after 200·budget + 1000 draws
// it stops with ErrStalled, so that a method whose instrumental mass sits on
// labelled pairs terminates. onLabel, when set, is called after each fresh
// label is committed with the distinct label count so far; an error from it
// ends the run and is returned.
func Run(m Method, o oracle.Oracle, budget int, onLabel func(labels int) error) (labels, draws int, err error) {
	cache := make(map[int]bool)
	maxDraws := 200*budget + 1000
	for len(cache) < budget {
		if draws == maxDraws {
			return len(cache), draws, ErrStalled
		}
		d := m.Draw()
		draws++
		label, cached := cache[d.Pair]
		if !cached {
			label = o.Label(d.Pair)
			cache[d.Pair] = label
		}
		m.Commit(d, label)
		if !cached && onLabel != nil {
			if err := onLabel(len(cache)); err != nil {
				return len(cache), draws, err
			}
		}
	}
	return len(cache), draws, nil
}
