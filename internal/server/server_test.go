package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"oasis"
	"oasis/erbench"
	"oasis/internal/session"
)

// client is a minimal typed client over the JSON API, shared by the tests.
type client struct {
	t    *testing.T
	base string
	http *http.Client
}

func (c *client) do(method, path string, body, out any) int {
	c.t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			c.t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, c.base+path, &buf)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			c.t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

// TestEndToEndConcurrentWorkers is the acceptance test: an in-process
// oasis-server, a session over a synthetic erbench pool, and concurrent
// worker goroutines labelling via batched propose/commit over HTTP. The
// final estimate must land within estTolerance of both the single-threaded
// Sampler.Run result at the same seed and budget and the pool's true F.
func TestEndToEndConcurrentWorkers(t *testing.T) {
	pool, err := erbench.BuildPool("cora", erbench.PoolConfig{Scale: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	inner := pool.Pool.Internal()
	truth := func(i int) bool { return pool.TruthProb[i] >= 0.5 }

	// The posterior plug-in estimate is used on both sides because the
	// comparison must be robust to worker interleaving: the AIS ratio has
	// heavy-tailed weights at this budget (estimator stdev ≈ 0.05), while
	// the plug-in concentrates faster. The service's draw sequence still
	// depends on how the worker goroutines interleave, so its estimate is a
	// random variable with stdev ≈ 0.03 around this budget while the Run
	// reference is a single fixed draw from the same distribution (itself
	// 0.085 from the true F at this seed); estTolerance is ≈4σ of the
	// observed spread so the gate catches real divergence, not scheduling
	// luck — go test -shuffle=on -count=3 must pass it reliably.
	const estTolerance = 0.12
	const (
		budget  = 1500
		workers = 6
		batch   = 16
		seed    = 99
	)
	opts := oasis.Options{Strata: 20, Seed: seed, PosteriorEstimate: true}

	// Single-threaded reference at the same seed and budget.
	ref, err := oasis.NewSampler(pool.Pool, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ref.Run(truth, budget)
	if err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(New(session.NewManager(session.ManagerOptions{})).Handler())
	defer ts.Close()
	c := &client{t: t, base: ts.URL, http: ts.Client()}

	var created session.Status
	code := c.do("POST", "/v1/sessions", session.Config{
		ID:         "e2e",
		Scores:     inner.Scores,
		Preds:      inner.Preds,
		Calibrated: inner.Probabilistic,
		Threshold:  inner.Threshold,
		Options:    opts,
		Budget:     budget,
		LeaseTTL:   time.Minute,
	}, &created)
	if code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for spins := 0; spins < 50*budget; spins++ {
				var pr ProposeResponse
				if code := c.do("GET", fmt.Sprintf("/v1/sessions/e2e/propose?n=%d", batch), nil, &pr); code != http.StatusOK {
					t.Errorf("propose: status %d", code)
					return
				}
				if pr.Exhausted {
					return
				}
				if len(pr.Proposals) == 0 {
					continue // everything currently leased to other workers
				}
				req := LabelsRequest{}
				for _, p := range pr.Proposals {
					req.Labels = append(req.Labels, Label{Pair: p.Pair, Label: truth(p.Pair)})
				}
				var lr LabelsResponse
				if code := c.do("POST", "/v1/sessions/e2e/labels", req, &lr); code != http.StatusOK {
					t.Errorf("labels: status %d", code)
					return
				}
				if lr.Committed != len(req.Labels) {
					t.Errorf("committed %d of %d labels", lr.Committed, len(req.Labels))
					return
				}
			}
			t.Error("worker spun out before the budget was exhausted")
		}()
	}
	wg.Wait()

	var st session.Status
	if code := c.do("GET", "/v1/sessions/e2e/estimate", nil, &st); code != http.StatusOK {
		t.Fatalf("estimate: status %d", code)
	}
	if st.LabelsCommitted != budget {
		t.Fatalf("labels committed = %d, want %d", st.LabelsCommitted, budget)
	}
	if st.Estimate == nil {
		t.Fatal("estimate undefined after full budget")
	}
	if diff := math.Abs(*st.Estimate - res.FMeasure); diff > estTolerance {
		t.Fatalf("service F̂ = %v vs Run F̂ = %v: |diff| = %v > %v (true F = %v)",
			*st.Estimate, res.FMeasure, diff, estTolerance, pool.TrueF(0.5))
	}
	if diff := math.Abs(*st.Estimate - pool.TrueF(0.5)); diff > estTolerance {
		t.Fatalf("service F̂ = %v vs true F = %v: |diff| = %v > %v",
			*st.Estimate, pool.TrueF(0.5), diff, estTolerance)
	}
	t.Logf("service F̂ = %.4f, Run F̂ = %.4f, true F = %.4f (%d labels)",
		*st.Estimate, res.FMeasure, pool.TrueF(0.5), st.LabelsCommitted)

	if code := c.do("DELETE", "/v1/sessions/e2e", nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	if code := c.do("GET", "/v1/sessions/e2e", nil, nil); code != http.StatusNotFound {
		t.Fatalf("get after delete: status %d", code)
	}
}

// TestServerCRUDAndErrors covers the non-happy paths: bad bodies, unknown
// sessions, expired-label reporting and listing.
func TestServerCRUDAndErrors(t *testing.T) {
	mgr := session.NewManager(session.ManagerOptions{DefaultLeaseTTL: time.Minute})
	ts := httptest.NewServer(New(mgr).Handler())
	defer ts.Close()
	c := &client{t: t, base: ts.URL, http: ts.Client()}

	if code := c.do("GET", "/v1/sessions/nope", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown session: status %d", code)
	}
	if code := c.do("POST", "/v1/sessions", session.Config{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty pool: status %d", code)
	}

	scores := []float64{0.9, 0.8, 0.2, 0.1, 0.7, 0.3}
	preds := []bool{true, true, false, false, true, false}
	var st session.Status
	if code := c.do("POST", "/v1/sessions", session.Config{
		ID: "crud", Scores: scores, Preds: preds, Calibrated: true,
		Options: oasis.Options{Strata: 2, Seed: 1},
	}, &st); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if st.PoolSize != 6 || st.InitialEstimate == nil {
		t.Fatalf("unexpected created status: %+v", st)
	}

	var list struct {
		Sessions []session.Status `json:"sessions"`
	}
	if code := c.do("GET", "/v1/sessions", nil, &list); code != http.StatusOK || len(list.Sessions) != 1 {
		t.Fatalf("list: status %d, %d sessions", code, len(list.Sessions))
	}

	// Committing a never-proposed pair reports "expired", commits nothing.
	var lr LabelsResponse
	if code := c.do("POST", "/v1/sessions/crud/labels", LabelsRequest{
		Labels: []Label{{Pair: 0, Label: true}},
	}, &lr); code != http.StatusOK {
		t.Fatalf("labels: status %d", code)
	}
	if lr.Committed != 0 || lr.Results[0].Status != "expired" {
		t.Fatalf("unexpected label result: %+v", lr)
	}

	if code := c.do("GET", "/v1/sessions/crud/propose?n=0", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("propose n=0: status %d", code)
	}

	// A leased pair commits once ("ok"); the re-answer is a "duplicate" and
	// does not inflate the committed count.
	var pr ProposeResponse
	if code := c.do("GET", "/v1/sessions/crud/propose?n=1", nil, &pr); code != http.StatusOK || len(pr.Proposals) != 1 {
		t.Fatalf("propose: status %d, %d proposals", code, len(pr.Proposals))
	}
	pair := pr.Proposals[0].Pair
	for attempt, want := range []string{"ok", "duplicate"} {
		if code := c.do("POST", "/v1/sessions/crud/labels", LabelsRequest{
			Labels: []Label{{Pair: pair, Label: true}},
		}, &lr); code != http.StatusOK {
			t.Fatalf("labels attempt %d: status %d", attempt, code)
		}
		wantCommitted := 0
		if want == "ok" {
			wantCommitted = 1
		}
		if lr.Results[0].Status != want || lr.Committed != wantCommitted {
			t.Fatalf("attempt %d: got %+v, want status %q committed %d", attempt, lr, want, wantCommitted)
		}
	}
	if code := c.do("GET", "/v1/sessions/crud/estimate", nil, &st); code != http.StatusOK || st.LabelsCommitted != 1 {
		t.Fatalf("after duplicate: status %d, labels %d", code, st.LabelsCommitted)
	}
}

// TestCreateMethod: an empty method and "oasis" both create an OASIS
// session; the removed passive method answers 400 and names the uniform
// configuration that serves the same baseline.
func TestCreateMethod(t *testing.T) {
	mgr := session.NewManager(session.ManagerOptions{})
	ts := httptest.NewServer(New(mgr).Handler())
	defer ts.Close()
	post := func(body string) (int, []byte) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, data
	}
	const pool = `"scores":[0.9,0.8,0.2,0.1],"preds":[true,true,false,false],"calibrated":true`
	for _, method := range []string{"", "oasis"} {
		code, body := post(`{"id":"m-` + method + `","method":"` + method + `",` + pool + `}`)
		var st session.Status
		if err := json.Unmarshal(body, &st); code != http.StatusCreated || err != nil || st.Method != session.MethodOASIS {
			t.Fatalf("create with method %q: status %d, body %s", method, code, body)
		}
	}
	code, body := post(`{"id":"p","method":"passive",` + pool + `,"options":{"Strata":4}}`)
	var e errorBody
	if err := json.Unmarshal(body, &e); err != nil || code != http.StatusBadRequest {
		t.Fatalf("create with method passive: status %d, body %s", code, body)
	}
	if !strings.Contains(e.Error, `{"Strata": 1, "Epsilon": 1}`) {
		t.Fatalf("refusal does not name the uniform configuration: %q", e.Error)
	}
	if mgr.Len() != 2 {
		t.Fatalf("manager holds %d sessions, want 2", mgr.Len())
	}
}

// TestHealthAndStats covers the ops endpoints in snapshot-only mode (no
// WAL): healthz is "ok" and stats aggregates sessions — with the per-shard
// breakdown summing to the totals — without a wal block. The WAL-enabled
// variants are exercised by the crash-recovery end-to-end test in
// cmd/oasis-server.
func TestHealthAndStats(t *testing.T) {
	mgr := session.NewManager(session.ManagerOptions{Shards: 4})
	ts := httptest.NewServer(New(mgr).Handler())
	defer ts.Close()
	c := &client{t: t, base: ts.URL, http: ts.Client()}

	var health HealthResponse
	if code := c.do("GET", "/healthz", nil, &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz: status %d, %+v", code, health)
	}

	scores := []float64{0.9, 0.8, 0.2, 0.1, 0.7, 0.3}
	preds := []bool{true, true, false, false, true, false}
	if code := c.do("POST", "/v1/sessions", session.Config{
		ID: "stats", Scores: scores, Preds: preds, Calibrated: true,
		Options: oasis.Options{Strata: 2, Seed: 1},
	}, nil); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	var pr ProposeResponse
	if code := c.do("GET", "/v1/sessions/stats/propose?n=2", nil, &pr); code != http.StatusOK || len(pr.Proposals) != 2 {
		t.Fatalf("propose: status %d, %d proposals", code, len(pr.Proposals))
	}
	var lr LabelsResponse
	if code := c.do("POST", "/v1/sessions/stats/labels", LabelsRequest{
		Labels: []Label{{Pair: pr.Proposals[0].Pair, Label: true}},
	}, &lr); code != http.StatusOK || lr.Committed != 1 {
		t.Fatalf("labels: status %d, committed %d", code, lr.Committed)
	}

	var stats StatsResponse
	if code := c.do("GET", "/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if stats.Sessions != 1 || stats.LabelsCommitted != 1 || stats.PendingProposals != 1 {
		t.Fatalf("unexpected stats: %+v", stats)
	}
	if len(stats.Shards) != 4 {
		t.Fatalf("stats has %d shard entries, want 4", len(stats.Shards))
	}
	var sess, labels, pending int
	for i, ss := range stats.Shards {
		if ss.Shard != i {
			t.Fatalf("shard entry %d labelled %d", i, ss.Shard)
		}
		sess += ss.Sessions
		labels += ss.LabelsCommitted
		pending += ss.PendingProposals
	}
	if sess != stats.Sessions || labels != stats.LabelsCommitted || pending != stats.PendingProposals {
		t.Fatalf("per-shard stats (%d/%d/%d) do not sum to the totals: %+v", sess, labels, pending, stats)
	}
	if stats.WAL != nil {
		t.Fatalf("stats reported a WAL block without a journal: %+v", stats.WAL)
	}
}

// TestServeGracefulShutdown checks Serve comes up, answers, and drains on
// context cancellation.
func TestServeGracefulShutdown(t *testing.T) {
	mgr := session.NewManager(session.ManagerOptions{})
	srv := New(mgr)
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, "127.0.0.1:0", ready) }()
	addr := <-ready

	resp, err := http.Get("http://" + addr + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: status %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not shut down")
	}
}
