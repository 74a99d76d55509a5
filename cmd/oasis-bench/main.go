// Command oasis-bench regenerates the paper's tables and figures against the
// synthetic testbed.
//
// Usage:
//
//	oasis-bench [-exp all|table1|table2|table3|fig1|fig2|fig3|fig4|fig5|headline|ablations]
//	            [-scale 0.25] [-runs 20] [-seed 1] [-full] [-dataset name]
//
// -full is shorthand for -scale 1.0. Output is written to stdout; redirect
// to capture.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"oasis/internal/paperexp"
)

func main() {
	exp := flag.String("exp", "all", "experiment to regenerate: all, table1, table2, table3, fig1, fig2, fig3, fig4, fig5, headline, ablations")
	scale := flag.Float64("scale", 0.25, "pool/budget scale relative to the paper (1.0 = paper scale)")
	runs := flag.Int("runs", 20, "repeats per error curve (paper: 1000)")
	seed := flag.Uint64("seed", 1, "base seed")
	full := flag.Bool("full", false, "shorthand for -scale 1.0")
	dataset := flag.String("dataset", "", "restrict fig2 to one dataset")
	flag.Parse()

	cfg := paperexp.Config{Scale: *scale, Runs: *runs, Seed: *seed}
	if *full {
		cfg.Scale = 1.0
	}
	w := io.Writer(os.Stdout)

	type job struct {
		name string
		run  func(io.Writer, paperexp.Config) error
	}
	fig2 := func(w io.Writer, cfg paperexp.Config) error {
		if *dataset != "" {
			return paperexp.Figure2(w, cfg, *dataset)
		}
		return paperexp.Figure2(w, cfg)
	}
	ablations := func(w io.Writer, cfg paperexp.Config) error {
		for _, f := range []func(io.Writer, paperexp.Config) error{
			paperexp.AblationEpsilon,
			paperexp.AblationPriorStrength,
			paperexp.AblationPriorDecay,
			paperexp.AblationStratifier,
			paperexp.AblationPosteriorEstimate,
			paperexp.AblationISAlias,
		} {
			if err := f(w, cfg); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	jobs := map[string][]job{
		"table1":    {{"table1", paperexp.Table1}},
		"table2":    {{"table2", paperexp.Table2}},
		"table3":    {{"table3", paperexp.Table3}},
		"fig1":      {{"fig1", paperexp.Figure1}},
		"fig2":      {{"fig2", fig2}},
		"fig3":      {{"fig3", paperexp.Figure3}},
		"fig4":      {{"fig4", paperexp.Figure4}},
		"fig5":      {{"fig5", paperexp.Figure5}},
		"headline":  {{"headline", paperexp.HeadlineSavings}},
		"ablations": {{"ablations", ablations}},
		"all": {
			{"table1", paperexp.Table1},
			{"table2", paperexp.Table2},
			{"table3", paperexp.Table3},
			{"fig1", paperexp.Figure1},
			{"fig2", fig2},
			{"fig3", paperexp.Figure3},
			{"fig4", paperexp.Figure4},
			{"fig5", paperexp.Figure5},
			{"headline", paperexp.HeadlineSavings},
			{"ablations", ablations},
		},
	}
	selected, ok := jobs[*exp]
	if !ok {
		log.Fatalf("unknown experiment %q", *exp)
	}
	for _, j := range selected {
		if err := j.run(w, cfg); err != nil {
			log.Fatalf("%s: %v", j.name, err)
		}
		fmt.Fprintln(w)
	}
}
