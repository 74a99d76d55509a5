package main

// End-to-end test: build the real oasis-eval binary, run every method over
// a CSV written here, and check what it prints; then the CSV reader's
// refusals.

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"oasis/internal/rng"
)

// writeCSV writes a score,pred,label file of n calibrated pairs and returns
// its path.
func writeCSV(t *testing.T, n int, seed uint64) string {
	t.Helper()
	r := rng.New(seed)
	var b strings.Builder
	b.WriteString("score,pred,label\n")
	for i := 0; i < n; i++ {
		u := r.Float64()
		score := u * u
		pred, label := 0, 0
		if score >= 0.5 {
			pred = 1
		}
		if r.Bernoulli(score) {
			label = 1
		}
		fmt.Fprintf(&b, "%g,%d,%d\n", score, pred, label)
	}
	path := filepath.Join(t.TempDir(), "pairs.csv")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

var runLine = regexp.MustCompile(`^run (\d+): F=(\S+) labels=(\d+) iterations=(\d+)  \(true F=(\S+), \|err\|=(\S+)\)$`)

func TestEvalEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the oasis-eval binary")
	}
	bin := filepath.Join(t.TempDir(), "oasis-eval")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	csvPath := writeCSV(t, 3000, 5)
	const budget, runs = 200, 2
	for _, method := range []string{"oasis", "passive", "stratified", "is"} {
		t.Run(method, func(t *testing.T) {
			out, err := exec.Command(bin, "-in", csvPath, "-method", method, "-calibrated",
				"-budget", strconv.Itoa(budget), "-strata", "10", "-runs", strconv.Itoa(runs)).CombinedOutput()
			if err != nil {
				t.Fatalf("oasis-eval -method %s: %v\n%s", method, err, out)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			if len(lines) != 1+runs || !strings.HasPrefix(lines[0], "pool: 3000 pairs,") {
				t.Fatalf("want a pool line and %d run lines, got:\n%s", runs, out)
			}
			for i, line := range lines[1:] {
				m := runLine.FindStringSubmatch(line)
				if m == nil || m[1] != strconv.Itoa(i) {
					t.Fatalf("run line %d does not parse: %q", i, line)
				}
				if labels, _ := strconv.Atoi(m[3]); labels != budget {
					t.Errorf("run %d: labels=%d, want the budget %d", i, labels, budget)
				}
				if draws, _ := strconv.Atoi(m[4]); draws < budget {
					t.Errorf("run %d: %d draws for %d labels", i, draws, budget)
				}
				if e, err := strconv.ParseFloat(m[6], 64); err != nil || math.IsNaN(e) || math.IsInf(e, 0) {
					t.Errorf("run %d: |err|=%s is not finite", i, m[6])
				}
			}
		})
	}
	if out, err := exec.Command(bin, "-in", csvPath, "-method", "bogus").CombinedOutput(); err == nil ||
		!strings.Contains(string(out), `unknown method "bogus"`) {
		t.Fatalf("unknown method: err %v, output %s", err, out)
	}
}

func TestReadPairsRefusals(t *testing.T) {
	for _, tc := range []struct {
		name, data, want string
	}{
		{"missing column", "score,pred\n0.5,1\n", `missing column "label"`},
		{"non-boolean pred", "score,pred,label\n0.5,yes,1\n", "bad pred"},
		{"no data rows", "score,pred,label\n", "no data rows"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "pairs.csv")
			if err := os.WriteFile(path, []byte(tc.data), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := readPairs(path); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("readPairs: err = %v, want one naming %q", err, tc.want)
			}
		})
	}
	if scores, preds, labels, err := readPairs(writeCSV(t, 7, 9)); err != nil || len(scores) != 7 || len(preds) != 7 || len(labels) != 7 {
		t.Fatalf("readPairs of a valid file: %d rows, err %v", len(scores), err)
	}
}
