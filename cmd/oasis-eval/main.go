// Command oasis-eval estimates the F-measure of an ER system from a CSV of
// (score, prediction, label) rows using OASIS or one of the baselines.
//
// The CSV must have a header and columns: score (float), pred (0/1), and —
// because this tool simulates the labelling oracle from recorded ground
// truth — label (0/1). In a live deployment the label column would be
// replaced by real oracle queries through the library API.
//
// Usage:
//
//	oasis-eval -in pairs.csv [-method oasis|passive|stratified|is]
//	           [-budget 1000] [-alpha 0.5] [-strata 30] [-calibrated]
//	           [-seed 1] [-runs 1]
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"strconv"

	"oasis"
)

func main() {
	in := flag.String("in", "", "input CSV with header score,pred,label")
	method := flag.String("method", "oasis", "estimation method: oasis, passive, stratified, is")
	budget := flag.Int("budget", 1000, "label budget")
	alpha := flag.Float64("alpha", 0.5, "F-measure weight (1=precision, 0=recall)")
	strataK := flag.Int("strata", 30, "number of strata for oasis/stratified")
	calibrated := flag.Bool("calibrated", false, "scores are probabilities in [0,1]")
	seed := flag.Uint64("seed", 1, "random seed")
	runs := flag.Int("runs", 1, "independent repeats to report")
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}

	scores, preds, labels, err := readPairs(*in)
	if err != nil {
		log.Fatal(err)
	}
	kind := oasis.UncalibratedScores
	if *calibrated {
		kind = oasis.CalibratedScores
	}
	pool, err := oasis.NewPool(scores, preds, kind)
	if err != nil {
		log.Fatal(err)
	}
	oracle := func(i int) bool { return labels[i] }

	// Ground-truth F for reference (the tool has all labels).
	var tp, fp, fn float64
	for i := range labels {
		switch {
		case labels[i] && preds[i]:
			tp++
		case !labels[i] && preds[i]:
			fp++
		case labels[i] && !preds[i]:
			fn++
		}
	}
	den := *alpha*(tp+fp) + (1-*alpha)*(tp+fn)
	trueF := math.NaN()
	if den > 0 {
		trueF = tp / den
	}

	fmt.Printf("pool: %d pairs, %d predicted matches; method=%s budget=%d alpha=%g\n",
		pool.N(), pool.NumPredPositives(), *method, *budget, *alpha)
	for run := 0; run < *runs; run++ {
		opts := oasis.Options{Alpha: *alpha, Strata: *strataK, Seed: *seed + uint64(run)}
		if *alpha == 0 {
			opts.Recall = true
		}
		// OASIS and the baselines run through the same loop.
		var m interface {
			Run(oasis.OracleFunc, int) (*oasis.Result, error)
		}
		var err error
		switch *method {
		case "oasis":
			m, err = oasis.NewSampler(pool, opts)
		case "passive":
			m, err = oasis.NewPassiveSampler(pool, opts)
		case "stratified":
			m, err = oasis.NewStratifiedSampler(pool, opts)
		case "is":
			m, err = oasis.NewISSampler(pool, opts)
		default:
			log.Fatalf("unknown method %q", *method)
		}
		if err != nil {
			log.Fatal(err)
		}
		res, err := m.Run(oracle, *budget)
		if err != nil {
			log.Fatal(err)
		}
		line := fmt.Sprintf("run %d: F=%.4f labels=%d iterations=%d",
			run, res.FMeasure, res.LabelsConsumed, res.Iterations)
		if !math.IsNaN(trueF) {
			line += fmt.Sprintf("  (true F=%.4f, |err|=%.4f)", trueF, math.Abs(res.FMeasure-trueF))
		}
		fmt.Println(line)
	}
}

// readPairs parses the score,pred,label CSV.
func readPairs(path string) (scores []float64, preds, labels []bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	header, err := r.Read()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("reading header: %w", err)
	}
	col := map[string]int{}
	for i, h := range header {
		col[h] = i
	}
	for _, need := range []string{"score", "pred", "label"} {
		if _, ok := col[need]; !ok {
			return nil, nil, nil, fmt.Errorf("missing column %q (header %v)", need, header)
		}
	}
	line := 1
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, nil, fmt.Errorf("line %d: %w", line, err)
		}
		line++
		s, err := strconv.ParseFloat(rec[col["score"]], 64)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("line %d: bad score: %w", line, err)
		}
		p, err := parseBool(rec[col["pred"]])
		if err != nil {
			return nil, nil, nil, fmt.Errorf("line %d: bad pred: %w", line, err)
		}
		l, err := parseBool(rec[col["label"]])
		if err != nil {
			return nil, nil, nil, fmt.Errorf("line %d: bad label: %w", line, err)
		}
		scores = append(scores, s)
		preds = append(preds, p)
		labels = append(labels, l)
	}
	if len(scores) == 0 {
		return nil, nil, nil, fmt.Errorf("%s: no data rows", path)
	}
	return scores, preds, labels, nil
}

func parseBool(s string) (bool, error) {
	switch s {
	case "0", "false", "False":
		return false, nil
	case "1", "true", "True":
		return true, nil
	default:
		return false, fmt.Errorf("not a boolean: %q", s)
	}
}
