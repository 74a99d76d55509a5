package server

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"oasis"
	"oasis/internal/obs"
	"oasis/internal/session"
	"oasis/internal/wal"
)

// --- strict Prometheus text-format validator ---------------------------

type metricFamily struct {
	help    string
	typ     string
	samples map[string]float64 // "name{labels}" -> value, insertion-checked for dups
}

var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// parseExposition parses and validates Prometheus text format 0.0.4:
// every family has HELP and TYPE before its samples, label values are
// properly quoted and escaped, histogram buckets are cumulative and
// consistent with _sum/_count. It fails the test on any violation.
func parseExposition(t *testing.T, text string) map[string]*metricFamily {
	t.Helper()
	fams := make(map[string]*metricFamily)
	var current string // family whose block we are inside
	for ln, line := range strings.Split(text, "\n") {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("line %d %q: %s", ln+1, line, fmt.Sprintf(format, args...))
		}
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 || parts[0] != "#" || (parts[1] != "HELP" && parts[1] != "TYPE") {
				fail("malformed comment line")
			}
			name := parts[2]
			if !metricNameRE.MatchString(name) {
				fail("bad metric name %q", name)
			}
			switch parts[1] {
			case "HELP":
				if _, dup := fams[name]; dup {
					fail("second HELP for %q", name)
				}
				fams[name] = &metricFamily{help: parts[3], samples: make(map[string]float64)}
				current = name
			case "TYPE":
				f, ok := fams[name]
				if !ok {
					fail("TYPE before HELP for %q", name)
				}
				if f.typ != "" {
					fail("second TYPE for %q", name)
				}
				if len(f.samples) > 0 {
					fail("TYPE after samples for %q", name)
				}
				switch parts[3] {
				case "counter", "gauge", "histogram":
					f.typ = parts[3]
				default:
					fail("bad type %q", parts[3])
				}
			}
			continue
		}
		name, labels, value := parseSampleLine(t, ln+1, line)
		base := name
		fam, ok := fams[base]
		if !ok {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if strings.HasSuffix(name, suffix) {
					if f2, ok2 := fams[strings.TrimSuffix(name, suffix)]; ok2 && f2.typ == "histogram" {
						base, fam, ok = strings.TrimSuffix(name, suffix), f2, true
						break
					}
				}
			}
		}
		if !ok {
			fail("sample for family without HELP/TYPE")
		}
		if fam.typ == "" {
			fail("sample before TYPE for %q", base)
		}
		if fam.typ == "histogram" && name == base {
			fail("bare sample %q for histogram family", name)
		}
		if fam.typ != "histogram" && name != base {
			fail("suffixed sample %q for %s family", name, fam.typ)
		}
		if base != current {
			// Families must be contiguous blocks (our writer sorts them).
			if len(fams[base].samples) > 0 {
				fail("family %q split across blocks", base)
			}
			current = base
		}
		if fam.typ == "counter" && (value < 0 || math.IsNaN(value)) {
			fail("counter value %v", value)
		}
		key := name + labels
		if _, dup := fam.samples[key]; dup {
			fail("duplicate sample %q", key)
		}
		fam.samples[key] = value
	}
	for name, f := range fams {
		if f.typ == "" {
			t.Fatalf("family %q has HELP but no TYPE", name)
		}
		if f.typ == "histogram" {
			validateHistogram(t, name, f)
		}
	}
	return fams
}

// parseSampleLine splits "name{labels} value", validating escaping.
func parseSampleLine(t *testing.T, ln int, line string) (name, labels string, value float64) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("line %d %q: %s", ln, line, fmt.Sprintf(format, args...))
	}
	rest := line
	brace := strings.IndexByte(rest, '{')
	if brace >= 0 {
		name = rest[:brace]
		rest = rest[brace:]
		// Walk the label block honouring escapes.
		if rest[0] != '{' {
			fail("bad label block")
		}
		i := 1
		for {
			if i >= len(rest) {
				fail("unterminated label block")
			}
			if rest[i] == '}' {
				break
			}
			eq := strings.IndexByte(rest[i:], '=')
			if eq < 0 {
				fail("label without =")
			}
			lname := rest[i : i+eq]
			if !labelNameRE.MatchString(lname) {
				fail("bad label name %q", lname)
			}
			i += eq + 1
			if i >= len(rest) || rest[i] != '"' {
				fail("unquoted label value")
			}
			i++
			for i < len(rest) && rest[i] != '"' {
				if rest[i] == '\\' {
					if i+1 >= len(rest) {
						fail("dangling escape")
					}
					switch rest[i+1] {
					case '\\', '"', 'n':
					default:
						fail("bad escape \\%c", rest[i+1])
					}
					i++
				} else if rest[i] == '\n' {
					fail("raw newline in label value")
				}
				i++
			}
			if i >= len(rest) {
				fail("unterminated label value")
			}
			i++ // closing quote
			if i < len(rest) && rest[i] == ',' {
				i++
			}
		}
		labels = rest[:i+1]
		rest = rest[i+1:]
	} else {
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			fail("no value")
		}
		name = rest[:sp]
		rest = rest[sp:]
	}
	if !metricNameRE.MatchString(name) {
		fail("bad metric name %q", name)
	}
	rest = strings.TrimPrefix(rest, " ")
	v, err := parseValue(rest)
	if err != nil {
		fail("bad value %q: %v", rest, err)
	}
	return name, labels, v
}

func parseValue(s string) (float64, error) {
	switch s {
	case "NaN":
		return math.NaN(), nil
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// validateHistogram checks cumulative monotone buckets, the +Inf bucket,
// and _sum/_count consistency for every label combination of one family.
func validateHistogram(t *testing.T, name string, f *metricFamily) {
	t.Helper()
	type series struct {
		les    []float64
		counts map[float64]float64
		sum    *float64
		count  *float64
	}
	groups := make(map[string]*series) // non-le label signature
	stripLe := func(labels string) (rest string, le float64, hasLe bool) {
		if labels == "" {
			return "", 0, false
		}
		inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
		var kept []string
		for _, part := range splitLabels(inner) {
			if strings.HasPrefix(part, `le="`) {
				v, err := parseValue(strings.TrimSuffix(strings.TrimPrefix(part, `le="`), `"`))
				if err != nil {
					t.Fatalf("%s: bad le in %q: %v", name, labels, err)
				}
				le, hasLe = v, true
				continue
			}
			kept = append(kept, part)
		}
		sort.Strings(kept)
		return strings.Join(kept, ","), le, hasLe
	}
	group := func(sig string) *series {
		g, ok := groups[sig]
		if !ok {
			g = &series{counts: make(map[float64]float64)}
			groups[sig] = g
		}
		return g
	}
	for key, v := range f.samples {
		brace := strings.IndexByte(key, '{')
		sname, labels := key, ""
		if brace >= 0 {
			sname, labels = key[:brace], key[brace:]
		}
		v := v
		switch {
		case strings.HasSuffix(sname, "_bucket"):
			sig, le, hasLe := stripLe(labels)
			if !hasLe {
				t.Fatalf("%s: bucket without le label: %q", name, key)
			}
			g := group(sig)
			g.les = append(g.les, le)
			g.counts[le] = v
		case strings.HasSuffix(sname, "_sum"):
			sig, _, _ := stripLe(labels)
			group(sig).sum = &v
		case strings.HasSuffix(sname, "_count"):
			sig, _, _ := stripLe(labels)
			group(sig).count = &v
		}
	}
	for sig, g := range groups {
		if g.sum == nil || g.count == nil || len(g.les) == 0 {
			t.Fatalf("%s{%s}: histogram missing _sum, _count or buckets", name, sig)
		}
		sort.Float64s(g.les)
		prev := -1.0
		for i, le := range g.les {
			if i > 0 && le == g.les[i-1] {
				t.Fatalf("%s{%s}: duplicate le=%v", name, sig, le)
			}
			if g.counts[le] < prev {
				t.Fatalf("%s{%s}: bucket le=%v count %v below previous %v", name, sig, le, g.counts[le], prev)
			}
			prev = g.counts[le]
		}
		inf := g.les[len(g.les)-1]
		if !math.IsInf(inf, 1) {
			t.Fatalf("%s{%s}: no +Inf bucket", name, sig)
		}
		if g.counts[inf] != *g.count {
			t.Fatalf("%s{%s}: +Inf bucket %v != _count %v", name, sig, g.counts[inf], *g.count)
		}
		if *g.count > 0 && math.IsNaN(*g.sum) {
			t.Fatalf("%s{%s}: NaN _sum", name, sig)
		}
	}
}

// splitLabels splits `a="x",b="y"` on commas outside quoted values.
func splitLabels(s string) []string {
	var out []string
	start, inQuote := 0, false
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '\\' && inQuote:
			i++
		case s[i] == '"':
			inQuote = !inQuote
		case s[i] == ',' && !inQuote:
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// sumFamily sums every sample of a family whose key contains all the given
// substrings (crude label matching, sufficient for the tests).
func sumFamily(f *metricFamily, contains ...string) float64 {
	var sum float64
	for key, v := range f.samples {
		ok := true
		for _, c := range contains {
			if !strings.Contains(key, c) {
				ok = false
				break
			}
		}
		if ok {
			sum += v
		}
	}
	return sum
}

// --- harness -----------------------------------------------------------

// newMetricsTestServer wires a fully observable server: sharded manager
// with session metrics, WAL with fsync=always and latency metrics, and
// the /metrics endpoint.
func newMetricsTestServer(t *testing.T, shards int) (*httptest.Server, *session.Manager) {
	t.Helper()
	reg := obs.NewRegistry()
	mgr := session.NewManager(session.ManagerOptions{
		Shards:  shards,
		Metrics: session.NewMetrics(reg, shards),
	})
	j, err := wal.Open(t.TempDir(), mgr, wal.Options{Fsync: "always", Metrics: wal.NewMetrics(reg)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	srv := New(mgr)
	srv.SetJournal(j)
	srv.SetVersion("test-1.2.3")
	srv.EnableMetrics(reg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, mgr
}

func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// runWorkload creates a session, proposes and commits labels via HTTP,
// returning the committed count.
func runWorkload(t *testing.T, c *client, id string, rounds, batch int) int {
	t.Helper()
	scores, preds, truth := benchPool(500, 11)
	cfg := session.Config{ID: id, Scores: scores, Preds: preds, Calibrated: true,
		Options: oasis.Options{Strata: 10, Seed: 4}}
	if code := c.do("POST", "/v1/sessions", cfg, nil); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	committed := 0
	path := "/v1/sessions/" + url.PathEscape(id)
	for r := 0; r < rounds; r++ {
		var pr ProposeResponse
		if code := c.do("GET", fmt.Sprintf("%s/propose?n=%d", path, batch), nil, &pr); code != http.StatusOK {
			t.Fatalf("propose: status %d", code)
		}
		req := LabelsRequest{}
		for _, p := range pr.Proposals {
			req.Labels = append(req.Labels, Label{Pair: p.Pair, Label: truth[p.Pair]})
		}
		var lr LabelsResponse
		if code := c.do("POST", path+"/labels", req, &lr); code != http.StatusOK {
			t.Fatalf("labels: status %d", code)
		}
		committed += lr.Committed
	}
	return committed
}

// --- tests -------------------------------------------------------------

func TestMetricsExposition(t *testing.T) {
	ts, _ := newMetricsTestServer(t, 4)
	c := &client{t: t, base: ts.URL, http: ts.Client()}

	// One session with an ID that needs label escaping, and one that gets
	// deleted before the scrape.
	weird := `we"ird\session`
	committed := runWorkload(t, c, weird, 4, 8)
	runWorkload(t, c, "doomed", 2, 4)
	if code := c.do("DELETE", "/v1/sessions/doomed", nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}

	fams := parseExposition(t, scrape(t, ts))

	// Instrument-backed families.
	if got := sumFamily(fams["oasis_session_creates_total"]); got != 2 {
		t.Errorf("creates = %v, want 2", got)
	}
	if got := sumFamily(fams["oasis_session_deletes_total"]); got != 1 {
		t.Errorf("deletes = %v, want 1", got)
	}
	if got := sumFamily(fams["oasis_session_labels_committed_total"]); got < float64(committed) {
		t.Errorf("labels committed %v < workload %d", got, committed)
	}
	if got := sumFamily(fams["oasis_session_proposed_pairs_total"]); got < float64(committed) {
		t.Errorf("proposed pairs %v < committed %d", got, committed)
	}
	for _, h := range []string{"oasis_session_create_seconds", "oasis_session_propose_seconds",
		"oasis_session_commit_seconds", "oasis_wal_append_seconds", "oasis_wal_fsync_seconds",
		"oasis_http_request_seconds"} {
		f, ok := fams[h]
		if !ok {
			t.Fatalf("missing histogram %s", h)
		}
		if got := sumFamily(f, "_count"); got == 0 {
			t.Errorf("%s observed nothing", h)
		}
	}
	if got := sumFamily(fams["oasis_http_requests_total"], `code="2xx"`); got == 0 {
		t.Error("no 2xx requests counted")
	}

	// Collector-backed families.
	if got := sumFamily(fams["oasis_sessions"]); got != 1 {
		t.Errorf("oasis_sessions = %v, want 1 after delete", got)
	}
	if got := sumFamily(fams["oasis_wal_records_appended_total"]); got == 0 {
		t.Error("wal records appended = 0")
	}
	if got := sumFamily(fams["oasis_build_info"], `version="test-1.2.3"`); got != 1 {
		t.Error("build info sample missing")
	}

	// Per-session sampler health for the surviving (weird-ID) session,
	// label escaping included.
	esc := `session="we\"ird\\session"`
	for _, g := range []string{"oasis_sampler_estimate", "oasis_sampler_asymptotic_variance",
		"oasis_sampler_ess", "oasis_sampler_ess_ratio", "oasis_sampler_labels_committed"} {
		f, ok := fams[g]
		if !ok {
			t.Fatalf("missing sampler gauge %s", g)
		}
		found := false
		for key := range f.samples {
			if strings.Contains(key, esc) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s has no sample for escaped session ID (have %v)", g, keysOf(f.samples))
		}
	}
	ratio := sumFamily(fams["oasis_sampler_ess_ratio"], esc)
	if !(ratio > 0 && ratio <= 1.0000001) {
		t.Errorf("ESS ratio = %v, want in (0,1]", ratio)
	}
	if got := sumFamily(fams["oasis_sampler_labels_committed"], esc); got != float64(committed) {
		t.Errorf("sampler labels committed = %v, want %d", got, committed)
	}
}

func keysOf(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestMetricsStatsCrossCheck(t *testing.T) {
	ts, mgr := newMetricsTestServer(t, 2)
	c := &client{t: t, base: ts.URL, http: ts.Client()}
	total := 0
	for i := 0; i < 3; i++ {
		total += runWorkload(t, c, fmt.Sprintf("cross-%d", i), 3, 8)
	}

	var stats StatsResponse
	if code := c.do("GET", "/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	fams := parseExposition(t, scrape(t, ts))

	if stats.LabelsCommitted != total {
		t.Errorf("stats labelsCommitted = %d, want %d", stats.LabelsCommitted, total)
	}
	if got := sumFamily(fams["oasis_session_labels_committed_total"]); got != float64(total) {
		t.Errorf("scraped labels committed = %v, stats says %d", got, stats.LabelsCommitted)
	}
	if got := sumFamily(fams["oasis_sessions"]); got != float64(stats.Sessions) {
		t.Errorf("scraped sessions = %v, stats says %d", got, stats.Sessions)
	}
	if got := sumFamily(fams["oasis_sampler_labels_committed"]); got != float64(total) {
		t.Errorf("per-session gauges sum to %v, want %d", got, total)
	}
	if stats.WAL == nil {
		t.Fatal("stats has no WAL block")
	}
	if got := sumFamily(fams["oasis_wal_records_appended_total"]); got != float64(stats.WAL.RecordsAppended) {
		t.Errorf("scraped wal records = %v, stats says %d", got, stats.WAL.RecordsAppended)
	}
	if got := sumFamily(fams["oasis_wal_syncs_total"]); got != float64(stats.WAL.Syncs) {
		t.Errorf("scraped wal syncs = %v, stats says %d", got, stats.WAL.Syncs)
	}
	// The hot-path fsync histogram and the lane counters are independent
	// code paths; they must agree on the sync count.
	if got := sumFamily(fams["oasis_wal_fsync_seconds"], "_count"); got != float64(stats.WAL.Syncs) {
		t.Errorf("fsync histogram count = %v, lane counters say %d", got, stats.WAL.Syncs)
	}
	if stats.UptimeSeconds <= 0 {
		t.Error("uptime not positive")
	}
	if stats.Runtime.Goroutines <= 0 || stats.Runtime.GoVersion == "" {
		t.Errorf("runtime block not populated: %+v", stats.Runtime)
	}
	if stats.Version != "test-1.2.3" {
		t.Errorf("version = %q", stats.Version)
	}
	if mgr.Len() != stats.Sessions {
		t.Errorf("manager has %d sessions, stats says %d", mgr.Len(), stats.Sessions)
	}
}

// TestMetricsScrapeStress hammers propose/commit from several workers
// while scraping /metrics, /v1/stats and /healthz concurrently; run with
// -race it is the detector for scrape-vs-hot-path races.
func TestMetricsScrapeStress(t *testing.T) {
	ts, _ := newMetricsTestServer(t, 4)
	c := &client{t: t, base: ts.URL, http: ts.Client()}
	scores, preds, truth := benchPool(2000, 17)
	const workers = 4
	for i := 0; i < workers; i++ {
		cfg := session.Config{ID: fmt.Sprintf("stress-%d", i), Scores: scores, Preds: preds,
			Calibrated: true, Options: oasis.Options{Strata: 10, Seed: uint64(i)}}
		if code := c.do("POST", "/v1/sessions", cfg, nil); code != http.StatusCreated {
			t.Fatalf("create: status %d", code)
		}
	}
	deadline := time.Now().Add(600 * time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := fmt.Sprintf("/v1/sessions/stress-%d", i)
			for time.Now().Before(deadline) {
				var pr ProposeResponse
				if code := c.do("GET", path+"/propose?n=8", nil, &pr); code != http.StatusOK {
					t.Errorf("propose: status %d", code)
					return
				}
				req := LabelsRequest{}
				for _, p := range pr.Proposals {
					req.Labels = append(req.Labels, Label{Pair: p.Pair, Label: truth[p.Pair]})
				}
				var lr LabelsResponse
				if code := c.do("POST", path+"/labels", req, &lr); code != http.StatusOK {
					t.Errorf("labels: status %d", code)
					return
				}
			}
		}(i)
	}
	for _, endpoint := range []string{"/metrics", "/v1/stats", "/healthz"} {
		wg.Add(1)
		go func(endpoint string) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				resp, err := ts.Client().Get(ts.URL + endpoint)
				if err != nil {
					t.Errorf("%s: %v", endpoint, err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(endpoint)
	}
	wg.Wait()
	// The exposition must still be valid after the storm.
	parseExposition(t, scrape(t, ts))
}
