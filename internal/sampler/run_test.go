package sampler

import (
	"errors"
	"math"
	"testing"

	"oasis/internal/oracle"
	"oasis/internal/rng"
)

// script is a Method that draws the pairs next gives it, in order, and
// records every commit.
type script struct {
	next    func(draw int) int
	draws   int
	commits []commit
}

type commit struct {
	pair  int
	label bool
}

func (s *script) Name() string { return "script" }

func (s *script) Draw() Draw {
	d := Draw{Pair: s.next(s.draws)}
	s.draws++
	return d
}

func (s *script) Commit(d Draw, label bool) { s.commits = append(s.commits, commit{d.Pair, label}) }

func (s *script) Estimate() float64 { return math.NaN() }

// sequence returns a next function that walks pairs and then repeats the
// last one.
func sequence(pairs ...int) func(int) int {
	return func(i int) int { return pairs[min(i, len(pairs)-1)] }
}

// countingOracle records the pairs whose label reached the oracle.
type countingOracle struct {
	inner oracle.Oracle
	asked []int
}

func (c *countingOracle) Label(i int) bool {
	c.asked = append(c.asked, i)
	return c.inner.Label(i)
}

// TestRunChargesFirstQueryOnly: a pair's first draw asks the oracle and
// charges the budget, later draws of it reuse the cached label for free,
// every draw is committed, and nothing is asked past the budget.
func TestRunChargesFirstQueryOnly(t *testing.T) {
	m := &script{next: sequence(0, 0, 0, 1, 0, 1, 2)}
	o := &countingOracle{inner: oracle.NewDeterministic([]bool{true, false, true})}
	labels, draws, err := Run(m, o, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if labels != 2 || draws != 4 {
		t.Errorf("labels %d, draws %d; want 2, 4", labels, draws)
	}
	if len(o.asked) != 2 || o.asked[0] != 0 || o.asked[1] != 1 {
		t.Errorf("oracle asked for %v, want [0 1]", o.asked)
	}
	want := []commit{{0, true}, {0, true}, {0, true}, {1, false}}
	if len(m.commits) != len(want) {
		t.Fatalf("commits %v, want %v", m.commits, want)
	}
	for i := range want {
		if m.commits[i] != want[i] {
			t.Fatalf("commits %v, want %v", m.commits, want)
		}
	}
}

// TestRunNeverAsksPastBudget: Run ends with the draw that buys the last
// label of the budget, so neither the method nor the oracle is asked again,
// however many fresh pairs the method would go on to draw.
func TestRunNeverAsksPastBudget(t *testing.T) {
	m := &script{next: func(draw int) int { return draw }}
	o := &countingOracle{inner: oracle.NewDeterministic(make([]bool, 10))}
	labels, draws, err := Run(m, o, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if labels != 3 || draws != 3 || m.draws != 3 {
		t.Errorf("labels %d, draws %d, method draws %d; want 3, 3, 3", labels, draws, m.draws)
	}
	if len(o.asked) != 3 || len(m.commits) != 3 {
		t.Errorf("oracle asked for %v, %d commits; want 3 and 3", o.asked, len(m.commits))
	}
}

// TestRunNoisyOracleOneLabelPerPair: behind Run's cache a Bernoulli oracle
// gives each pair one realised label per run, like a crowd worker who
// answers once, however often the pair is drawn.
func TestRunNoisyOracleOneLabelPerPair(t *testing.T) {
	probs := make([]float64, 50)
	for i := range probs {
		probs[i] = 0.5
	}
	r := rng.New(3)
	m := &script{next: func(int) int { return r.Intn(len(probs)) }}
	labels, draws, err := Run(m, oracle.NewBernoulli(probs, rng.New(5)), len(probs), nil)
	if err != nil {
		t.Fatal(err)
	}
	if labels != len(probs) || draws <= labels {
		t.Fatalf("labels %d, draws %d: want every pair labelled with repeat draws", labels, draws)
	}
	first := make(map[int]bool)
	for _, c := range m.commits {
		if l, ok := first[c.pair]; ok && l != c.label {
			t.Fatalf("pair %d committed with both labels", c.pair)
		}
		first[c.pair] = c.label
	}
}

// TestRunStallCap: a method whose draws stop finding unlabelled pairs ends
// with ErrStalled after 200·budget + 1000 draws.
func TestRunStallCap(t *testing.T) {
	m := &script{next: sequence(7)}
	labels, draws, err := Run(m, oracle.NewDeterministic(make([]bool, 8)), 2, nil)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err %v, want ErrStalled", err)
	}
	if labels != 1 || draws != 200*2+1000 || len(m.commits) != draws {
		t.Errorf("labels %d, draws %d, commits %d; want 1, 1400, 1400", labels, draws, len(m.commits))
	}
}

// TestRunHookSeesLabelCounts: the hook runs once per fresh label, after its
// commit, with the distinct label count so far; its error ends the run.
func TestRunHookSeesLabelCounts(t *testing.T) {
	m := &script{next: sequence(0, 1, 1, 0, 2, 3, 4)}
	var seen []int
	commitsAt := map[int]int{}
	labels, draws, err := Run(m, oracle.NewDeterministic(make([]bool, 5)), 4, func(labels int) error {
		seen = append(seen, labels)
		commitsAt[labels] = len(m.commits)
		return nil
	})
	if err != nil || labels != 4 || draws != 6 {
		t.Fatalf("labels %d, draws %d, err %v; want 4, 6, nil", labels, draws, err)
	}
	if len(seen) != 4 || seen[0] != 1 || seen[1] != 2 || seen[2] != 3 || seen[3] != 4 {
		t.Errorf("hook saw %v, want [1 2 3 4]", seen)
	}
	// Label 3 arrives with the fifth draw, pair 2.
	if commitsAt[3] != 5 {
		t.Errorf("hook for label 3 ran after %d commits, want 5", commitsAt[3])
	}

	stop := errors.New("stop")
	m = &script{next: sequence(0, 1, 2, 3)}
	labels, _, err = Run(m, oracle.NewDeterministic(make([]bool, 4)), 4, func(labels int) error {
		if labels == 2 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || labels != 2 {
		t.Errorf("labels %d, err %v; want 2 and the hook's error", labels, err)
	}
}
