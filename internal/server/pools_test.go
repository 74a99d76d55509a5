package server

// HTTP coverage for the content-addressed pool endpoints: upload (JSON and
// binary columnar), dedup, shared refcounts across sessions, delete
// semantics, the disabled-store 404s, and the request-body cap (413).

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"oasis"
	"oasis/internal/poolstore"
	"oasis/internal/rng"
	"oasis/internal/session"
)

// poolColumns builds a small synthetic pool.
func poolColumns(n int, seed uint64) (scores []float64, preds []bool) {
	r := rng.New(seed)
	scores = make([]float64, n)
	preds = make([]bool, n)
	for i := range scores {
		u := r.Float64()
		scores[i] = u * u
		preds[i] = scores[i] >= 0.5
	}
	return scores, preds
}

// newPoolServer starts an httptest server with a pool store attached.
func newPoolServer(t *testing.T) (*client, *poolstore.Store) {
	t.Helper()
	store, err := poolstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(session.NewManager(session.ManagerOptions{Pools: store}))
	srv.SetPools(store)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &client{t: t, base: ts.URL, http: ts.Client()}, store
}

func TestPoolUploadAndSharedSessions(t *testing.T) {
	c, store := newPoolServer(t)
	scores, preds := poolColumns(1500, 7)

	// Upload once.
	var created PoolResponse
	if code := c.do("POST", "/v1/pools", PoolUploadRequest{Scores: scores, Preds: preds}, &created); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	if created.Pairs != 1500 || !created.Created || !poolstore.ValidID(created.PoolID) {
		t.Fatalf("upload response = %+v", created)
	}
	// Re-upload: idempotent dedup hit, 200, same address.
	var again PoolResponse
	if code := c.do("POST", "/v1/pools", PoolUploadRequest{Scores: scores, Preds: preds}, &again); code != http.StatusOK {
		t.Fatalf("re-upload: status %d", code)
	}
	if again.PoolID != created.PoolID || again.Created {
		t.Fatalf("re-upload response = %+v", again)
	}

	// N sessions by reference: one shared copy, refcount N.
	const n = 5
	for i := 0; i < n; i++ {
		cfg := session.Config{
			ID: fmt.Sprintf("s%d", i), PoolID: created.PoolID, Calibrated: true,
			Options: oasis.Options{Strata: 8, Seed: uint64(i)},
		}
		var st session.Status
		if code := c.do("POST", "/v1/sessions", cfg, &st); code != http.StatusCreated {
			t.Fatalf("create session %d: status %d", i, code)
		}
		if st.PoolID != created.PoolID || st.PoolSize != 1500 {
			t.Fatalf("session status = %+v", st)
		}
	}
	var info PoolResponse
	if code := c.do("GET", "/v1/pools/"+created.PoolID, nil, &info); code != http.StatusOK {
		t.Fatalf("get pool: status %d", code)
	}
	if info.Refs != n {
		t.Fatalf("pool refs = %d, want %d", info.Refs, n)
	}
	var stats StatsResponse
	if code := c.do("GET", "/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if stats.Pools == nil || stats.Pools.Pools != 1 || stats.Pools.Refs != n || stats.Pools.Loaded != 1 {
		t.Fatalf("stats.Pools = %+v, want 1 pool, %d refs, 1 loaded copy", stats.Pools, n)
	}

	// Deleting the pool while referenced: 409. After the sessions go: 204.
	if code := c.do("DELETE", "/v1/pools/"+created.PoolID, nil, nil); code != http.StatusConflict {
		t.Fatalf("delete of referenced pool: status %d", code)
	}
	for i := 0; i < n; i++ {
		if code := c.do("DELETE", fmt.Sprintf("/v1/sessions/s%d", i), nil, nil); code != http.StatusNoContent {
			t.Fatalf("delete session %d: status %d", i, code)
		}
	}
	if got := store.Refs(created.PoolID); got != 0 {
		t.Fatalf("refs after deleting all sessions = %d", got)
	}
	if code := c.do("DELETE", "/v1/pools/"+created.PoolID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete of unreferenced pool: status %d", code)
	}
	if code := c.do("GET", "/v1/pools/"+created.PoolID, nil, nil); code != http.StatusNotFound {
		t.Fatalf("get of deleted pool: status %d", code)
	}
}

func TestPoolBinaryUpload(t *testing.T) {
	c, _ := newPoolServer(t)
	scores, preds := poolColumns(900, 9)
	encoded, err := poolstore.Encode(scores, preds)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.http.Post(c.base+"/v1/pools", "application/octet-stream", bytes.NewReader(encoded))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("binary upload: status %d", resp.StatusCode)
	}
	// The JSON form of the same columns dedups onto the binary upload.
	var again PoolResponse
	if code := c.do("POST", "/v1/pools", PoolUploadRequest{Scores: scores, Preds: preds}, &again); code != http.StatusOK {
		t.Fatalf("JSON re-upload after binary: status %d", code)
	}
	// Corrupt binary: 400.
	encoded[len(encoded)-1] ^= 1
	resp2, err := c.http.Post(c.base+"/v1/pools", "application/octet-stream", bytes.NewReader(encoded))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt binary upload: status %d", resp2.StatusCode)
	}
}

func TestPoolEndpointsDisabledWithoutStore(t *testing.T) {
	ts := httptest.NewServer(New(session.NewManager(session.ManagerOptions{})).Handler())
	defer ts.Close()
	c := &client{t: t, base: ts.URL, http: ts.Client()}
	for _, probe := range []struct{ method, path string }{
		{"POST", "/v1/pools"},
		{"GET", "/v1/pools"},
		{"GET", "/v1/pools/xyz"},
		{"DELETE", "/v1/pools/xyz"},
	} {
		if code := c.do(probe.method, probe.path, nil, nil); code != http.StatusNotFound {
			t.Fatalf("%s %s without a store: status %d", probe.method, probe.path, code)
		}
	}
	// Sessions referencing a pool fail cleanly too.
	cfg := session.Config{PoolID: strings.Repeat("ab", 32)}
	if code := c.do("POST", "/v1/sessions", cfg, nil); code != http.StatusBadRequest {
		t.Fatalf("poolref create without a store: status %d", code)
	}
}

// TestRequestBodyCap413 covers the max-body satellite: every POST endpoint
// — session create, labels, pool upload in both encodings — must answer an
// over-limit body with 413, and a within-limit body must still work.
func TestRequestBodyCap413(t *testing.T) {
	store, err := poolstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := session.NewManager(session.ManagerOptions{Pools: store})
	srv := New(mgr)
	srv.SetPools(store)
	srv.SetMaxBodyBytes(16 << 10) // 16 KiB for the test
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &client{t: t, base: ts.URL, http: ts.Client()}

	// A small session under the cap works.
	scores, preds := poolColumns(100, 3)
	var st session.Status
	if code := c.do("POST", "/v1/sessions", session.Config{ID: "small", Scores: scores, Preds: preds, Calibrated: true}, &st); code != http.StatusCreated {
		t.Fatalf("small create: status %d", code)
	}

	// An oversized inline create: 413, not an OOM and not a 400.
	bigScores, bigPreds := poolColumns(20_000, 4)
	if code := c.do("POST", "/v1/sessions", session.Config{ID: "big", Scores: bigScores, Preds: bigPreds}, nil); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized create: status %d", code)
	}
	// Oversized JSON pool upload: 413.
	if code := c.do("POST", "/v1/pools", PoolUploadRequest{Scores: bigScores, Preds: bigPreds}, nil); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized pool upload: status %d", code)
	}
	// Oversized binary pool upload: 413.
	encoded, err := poolstore.Encode(bigScores, bigPreds)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.http.Post(c.base+"/v1/pools", "application/octet-stream", bytes.NewReader(encoded))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized binary upload: status %d", resp.StatusCode)
	}
	// Oversized labels body: 413.
	labels := LabelsRequest{}
	for i := 0; i < 3000; i++ {
		labels.Labels = append(labels.Labels, Label{Pair: i, Label: true})
	}
	if code := c.do("POST", "/v1/sessions/small/labels", labels, nil); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized labels: status %d", code)
	}
	// The server is still healthy afterwards.
	if code := c.do("GET", "/healthz", nil, nil); code != http.StatusOK {
		t.Fatalf("healthz after 413s: status %d", code)
	}
}
