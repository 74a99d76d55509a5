package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path"
	"regexp"
	"strings"
)

// spec is BENCHMARK.json: the workloads, the end-to-end metrics with their
// regression bounds, and the per-layer metrics of the traced run.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricSpec is one metric. Bound, set on end-to-end metrics only, is the
// share of the baseline median by which the metric may worsen before a
// change counts as a regression.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// layerRow is one row of layers.json: a layer (named after the repository
// modules it covers), its per-layer metrics, the end-to-end metrics and
// workloads a change to that layer should move, and the workloads that
// bypass the layer, where such a change should move nothing.
type layerRow struct {
	Layer   string      `json:"layer"`
	Modules string      `json:"modules"`
	Metrics []string    `json:"metrics"`
	Moves   []layerMove `json:"moves"`
	Unmoved []string    `json:"unmoved"`
}

type layerMove struct {
	Metric    string   `json:"metric"`
	Workloads []string `json:"workloads"`
}

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRe = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func loadSpec(file string) (*spec, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	if len(data) > 64<<10 {
		return nil, fmt.Errorf("%s: %d bytes, limit is 64 KiB", file, len(data))
	}
	var s spec
	if err := decodeStrict(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	return &s, nil
}

func loadLayers(file string) ([]layerRow, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var rows []layerRow
	if err := decodeStrict(data, &rows); err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	return rows, nil
}

// validate checks the limits a benchmark definition must stay within.
func (s *spec) validate() error {
	if n := len(s.Command); n < 1 || n > 32 {
		return fmt.Errorf("command has %d strings, want 1..32", n)
	}
	for _, c := range s.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			return fmt.Errorf("command string %q: over 200 characters, absolute, or leaving the repository", c)
		}
	}
	if n := len(s.Paths); n < 1 || n > 16 {
		return fmt.Errorf("paths has %d entries, want 1..16", n)
	}
	for _, p := range s.Paths {
		if !pathRe.MatchString(p) || strings.HasPrefix(p, "/") || path.Clean(p) != p || strings.HasPrefix(p, "..") {
			return fmt.Errorf("path %q is not a clean relative path", p)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d, want 1..60", s.RunSeconds)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2..8", n)
	}
	seen := map[string]bool{}
	for _, w := range s.Workloads {
		if !nameRe.MatchString(w.Name) || seen[w.Name] {
			return fmt.Errorf("workload name %q is malformed or repeated", w.Name)
		}
		seen[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			return fmt.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen = map[string]bool{}
	check := func(m metricSpec, endToEnd bool) error {
		if !nameRe.MatchString(m.Name) || seen[m.Name] {
			return fmt.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
		if !unitRe.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: malformed unit %q", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			return fmt.Errorf("metric %s: better is %q, want higher or lower", m.Name, m.Better)
		}
		switch {
		case endToEnd && (m.Bound == nil || *m.Bound < 0 || *m.Bound > 0.25):
			return fmt.Errorf("end-to-end metric %s: bound must be in [0, 0.25]", m.Name)
		case !endToEnd && m.Bound != nil:
			return fmt.Errorf("per-layer metric %s has a bound", m.Name)
		}
		return nil
	}
	var setup *metricSpec
	maxBound := 0.0
	for i, m := range s.EndToEnd {
		if err := check(m, true); err != nil {
			return err
		}
		if m.Name == "setup_s" {
			setup = &s.EndToEnd[i]
		}
		maxBound = max(maxBound, *m.Bound)
	}
	for _, m := range s.PerLayer {
		if err := check(m, false); err != nil {
			return err
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		return fmt.Errorf("end-to-end metrics need setup_s in s, lower is better")
	}
	if *setup.Bound < maxBound {
		return fmt.Errorf("setup_s bound %g is not the largest (%g)", *setup.Bound, maxBound)
	}
	return nil
}

// validateLayers checks that every row names known metrics and workloads and
// that every per-layer metric belongs to exactly one layer.
func (s *spec) validateLayers(rows []layerRow) error {
	layerMetric := map[string]bool{}
	for _, m := range s.PerLayer {
		layerMetric[m.Name] = true
	}
	e2e := map[string]bool{}
	for _, m := range s.EndToEnd {
		e2e[m.Name] = true
	}
	work := map[string]bool{}
	for _, w := range s.Workloads {
		work[w.Name] = true
	}
	owner := map[string]string{}
	for _, r := range rows {
		if r.Layer == "" || len(r.Metrics) == 0 || len(r.Moves) == 0 {
			return fmt.Errorf("layer %q: needs metrics and at least one end-to-end prediction", r.Layer)
		}
		for _, m := range r.Metrics {
			if !layerMetric[m] {
				return fmt.Errorf("layer %s: %q is not a per-layer metric of BENCHMARK.json", r.Layer, m)
			}
			if prev, dup := owner[m]; dup {
				return fmt.Errorf("metric %s is listed under layers %s and %s", m, prev, r.Layer)
			}
			owner[m] = r.Layer
		}
		for _, mv := range r.Moves {
			if !e2e[mv.Metric] {
				return fmt.Errorf("layer %s: %q is not an end-to-end metric", r.Layer, mv.Metric)
			}
			if len(mv.Workloads) == 0 {
				return fmt.Errorf("layer %s: prediction for %s names no workload", r.Layer, mv.Metric)
			}
			for _, w := range mv.Workloads {
				if !work[w] {
					return fmt.Errorf("layer %s: unknown workload %q", r.Layer, w)
				}
			}
		}
		for _, w := range r.Unmoved {
			if !work[w] {
				return fmt.Errorf("layer %s: unknown workload %q", r.Layer, w)
			}
		}
	}
	for m := range layerMetric {
		if owner[m] == "" {
			return fmt.Errorf("per-layer metric %s belongs to no layer", m)
		}
	}
	return nil
}
