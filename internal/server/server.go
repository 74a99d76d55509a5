// Package server exposes the session subsystem as a JSON-over-HTTP
// evaluation service:
//
//	POST   /v1/sessions                  create a session (body: session.Config)
//	GET    /v1/sessions                  list session statuses
//	GET    /v1/sessions/{id}             one session's status
//	GET    /v1/sessions/{id}/estimate    current F̂ and accounting
//	GET    /v1/sessions/{id}/diagnostics convergence diagnostics: downsampled series,
//	                                     per-stratum health, degeneracy alarm state
//	GET    /v1/sessions/{id}/propose?n=  lease a batch of pairs to label
//	POST   /v1/sessions/{id}/labels      commit labels (body: {labels: [...]})
//	DELETE /v1/sessions/{id}             drop the session
//	POST   /v1/pools                     upload a pool once (JSON {scores, preds} or
//	                                     binary columnar, Content-Type octet-stream);
//	                                     returns its content-addressed poolId
//	GET    /v1/pools                     list stored pools (size, refcount, residency)
//	GET    /v1/pools/{id}                one pool's info
//	DELETE /v1/pools/{id}                drop an unreferenced pool (409 while in use)
//	GET    /healthz                      liveness for load balancers (503 once the WAL fail-stops)
//	GET    /v1/stats                     service totals + WAL and pool-store counters for ops
//	GET    /debug/traces                 retained request traces, newest first (with tracing enabled)
//	GET    /debug/traces/{id}            one trace's full span timeline, by 32-hex trace ID
//	GET    /debug/dashboard              zero-dependency HTML convergence dashboard with
//	                                     inline SVG sparklines per live session
//
// Pools uploaded through /v1/pools are shared: any number of sessions may be
// created with {"poolId": ...} instead of inline scores, and they all sample
// against one read-only in-memory copy. Every request body is bounded by the
// server's max-body limit (413 beyond it).
//
// The propose/commit cycle is the service form of Algorithm 3: workers pull
// batches of record pairs drawn from the current instrumental distribution,
// label them out-of-band (a crowd, an expert queue) and push answers back;
// the server folds each answer into the session's Beta posteriors and AIS
// estimate. Proposals carry leases — an unanswered pair returns to the
// proposable set after the session's lease TTL.
package server

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"mime"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"oasis/internal/diag"
	"oasis/internal/poolstore"
	"oasis/internal/session"
	"oasis/internal/trace"
	"oasis/internal/wal"
)

// DefaultMaxBodyBytes bounds request bodies when SetMaxBodyBytes is not
// called: large enough for a multi-million-pair pool upload (a 1M-pair JSON
// body is ~20 MiB, the binary form ~8 MiB), small enough that one hostile
// request cannot OOM the process.
const DefaultMaxBodyBytes = 256 << 20

// DefaultMaxPropose bounds the ?n= of one propose call when SetMaxPropose
// is not called. Without a cap, a single request for n=1e9 over a large
// pool forces a giant batch allocation and a multi-hundred-MB response;
// above the cap the server answers 400 and the client batches its pulls.
const DefaultMaxPropose = 8192

// StatusClientClosedRequest is the disposition recorded when the client
// disconnected mid-request (context cancellation observed by a handler):
// nginx's non-standard 499. It is counted separately from the 4xx class in
// oasis_http_requests_total — a hung-up client is not a client error, and
// admission control keys off the error-rate signals.
const StatusClientClosedRequest = 499

// Server is the HTTP front-end over a session.Manager.
type Server struct {
	mgr     *session.Manager
	jrn     *wal.Journal
	pools   *poolstore.Store
	maxBody int64

	// Observability wiring (see metrics.go and tracing.go): the metrics
	// registry behind GET /metrics, the structured access log with its
	// slow-request threshold, the trace collector behind /debug/traces,
	// the advertised version string, and the process start time behind
	// the uptime figures. met, accessLog, trc and version must be set
	// before Handler is called.
	met        *serverMetrics
	accessLog  *log.Logger
	slowReq    time.Duration
	trc        *trace.Collector
	profLabels bool
	reqSeq     atomic.Uint64
	bootPrefix uint64
	bootID     string
	version    string
	start      time.Time

	// Admission control (see admission.go) and the propose batch cap. adm
	// is an atomic pointer so SetAdmission can retune limits on a live
	// server without racing in-flight admit checks; admMet caches the
	// rejected counters so the retune does not re-register metric series.
	adm        atomic.Pointer[admission]
	admMet     *admissionMetrics
	maxPropose int
}

// New wraps a manager. Every server boot draws a random 64-bit prefix:
// request IDs are "<16-hex-prefix>-<seq>" and generated trace IDs embed
// the same prefix, so IDs are globally unique across restarts and a trace
// ID is greppable straight from an access-log line.
func New(mgr *session.Manager) *Server {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return &Server{
		mgr:        mgr,
		maxBody:    DefaultMaxBodyBytes,
		maxPropose: DefaultMaxPropose,
		start:      time.Now(),
		bootPrefix: binary.BigEndian.Uint64(b[:]),
		bootID:     hex.EncodeToString(b[:]),
	}
}

// SetJournal wires the write-ahead log into the ops endpoints: /healthz
// degrades to 503 once the journal enters its sticky failure state, and
// /v1/stats reports its counters.
func (s *Server) SetJournal(j *wal.Journal) { s.jrn = j }

// SetPools wires the content-addressed pool store into the /v1/pools
// endpoints and the stats report. It should be the same store the manager
// resolves Config.PoolID through.
func (s *Server) SetPools(p *poolstore.Store) { s.pools = p }

// SetMaxBodyBytes bounds every request body; requests beyond the limit get
// 413. Non-positive keeps the default.
func (s *Server) SetMaxBodyBytes(n int64) {
	if n > 0 {
		s.maxBody = n
	}
}

// SetMaxPropose bounds the batch size one propose call may request; ?n=
// above the cap gets 400. Non-positive keeps the default.
func (s *Server) SetMaxPropose(n int) {
	if n > 0 {
		s.maxPropose = n
	}
}

// Handler builds the route table. The metrics registry and the access log
// must be wired (EnableMetrics, SetAccessLog) before Handler is called:
// each route is wrapped at registration time, because the outer middleware
// cannot see the ServeMux pattern a request matched.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(pattern, h))
	}
	handle("POST /v1/sessions", s.createSession)
	handle("GET /v1/sessions", s.listSessions)
	// The hot session routes run behind admission control (a no-op wrapper
	// until SetAdmission is called); everything else — creates, deletes,
	// pools, ops probes — is never shed.
	handle("GET /v1/sessions/{id}", s.admit(s.getSession))
	handle("GET /v1/sessions/{id}/estimate", s.admit(s.getSession))
	handle("GET /v1/sessions/{id}/diagnostics", s.getDiagnostics)
	handle("GET /v1/sessions/{id}/propose", s.admit(s.propose))
	handle("POST /v1/sessions/{id}/labels", s.admit(s.commitLabels))
	handle("DELETE /v1/sessions/{id}", s.deleteSession)
	handle("POST /v1/pools", s.uploadPool)
	handle("GET /v1/pools", s.listPools)
	handle("GET /v1/pools/{id}", s.getPool)
	handle("DELETE /v1/pools/{id}", s.deletePool)
	handle("GET /healthz", s.healthz)
	handle("GET /v1/stats", s.stats)
	handle("GET /debug/dashboard", s.dashboard)
	if s.met != nil {
		handle("GET /metrics", s.metricsHandler)
	}
	if s.trc != nil {
		handle("GET /debug/traces", s.debugTraces)
		handle("GET /debug/traces/{id}", s.debugTrace)
	}
	return mux
}

// limitBody caps r's body at the server's max-body limit. Reads past the
// limit fail with *http.MaxBytesError, which decodeJSON and readAll turn
// into a 413.
func (s *Server) limitBody(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
}

// decodeJSON decodes a bounded JSON request body into v, writing the error
// response itself when it reports false: 415 for a Content-Type that is not
// JSON, 413 for an over-limit body, 400 otherwise. The whole body must be
// exactly one JSON value — trailing tokens after it ({"a":1}{"b":2}) are
// rejected, so a smuggled second document can never ride a valid first one
// through proxies that buffer whole bodies.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any, what string) bool {
	// An absent Content-Type defaults to JSON (curl-friendliness); a present
	// one must actually say JSON now that the binary protocol makes the
	// header load-bearing on the shared endpoints.
	if ct := r.Header.Get("Content-Type"); ct != "" && !mediaTypeIs(ct, "application/json") {
		writeError(w, http.StatusUnsupportedMediaType, "bad %s: Content-Type %q, want application/json (or %s on binary-capable endpoints)", what, ct, ContentTypeBinary)
		return false
	}
	s.limitBody(w, r)
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		writeBodyError(w, err, what)
		return false
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		writeError(w, http.StatusBadRequest, "bad %s: trailing data after the JSON value", what)
		return false
	}
	return true
}

// writeBodyError writes the uniform response for a failed body read or
// decode: 413 when the max-body limit cut it off, 400 otherwise.
func writeBodyError(w http.ResponseWriter, err error, what string) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, "bad %s: body exceeds the %d-byte limit", what, tooBig.Limit)
		return
	}
	writeError(w, http.StatusBadRequest, "bad %s: %v", what, err)
}

// HealthResponse is the body of GET /healthz. Error carries the WAL's
// sticky fail-stop error when the probe reports 503, and DamagedPools the
// count of quarantined pool files (informational: damaged pools degrade
// specific sessions, not the whole service), so the probe explains itself
// instead of requiring a log dive.
type HealthResponse struct {
	Status       string `json:"status"` // "ok" or "degraded"
	Error        string `json:"error,omitempty"`
	DamagedPools int    `json:"damagedPools,omitempty"`
	// DegenerateSessions counts sessions whose degeneracy alarm is in the
	// degenerate state. Informational, like DamagedPools: a degenerate
	// sampler needs operator attention but does not fail the liveness probe
	// (the service can still acknowledge writes).
	DegenerateSessions int `json:"degenerateSessions,omitempty"`
}

// degenerateSessions counts live sessions in the degenerate alarm state,
// shard by shard.
func (s *Server) degenerateSessions() int {
	n := 0
	for shard := 0; shard < s.mgr.Shards(); shard++ {
		for _, sess := range s.mgr.Sessions(shard) {
			if sess.SamplerHealth().State == diag.StateDegenerate {
				n++
			}
		}
	}
	return n
}

// healthz answers load-balancer probes: 200 while the service can
// acknowledge writes, 503 once the WAL has fail-stopped.
func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	var damaged int
	if s.pools != nil {
		damaged = len(s.pools.Damaged())
	}
	degen := s.degenerateSessions()
	if s.jrn != nil {
		if err := s.jrn.Err(); err != nil {
			writeJSON(w, http.StatusServiceUnavailable, HealthResponse{Status: "degraded", Error: err.Error(), DamagedPools: damaged, DegenerateSessions: degen})
			return
		}
	}
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", DamagedPools: damaged, DegenerateSessions: degen})
}

// ShardStats is one session-manager shard's slice of the totals. With a WAL
// attached, shard i's journal lane counters appear as lane i in the WAL
// block.
type ShardStats struct {
	Shard            int `json:"shard"`
	Sessions         int `json:"sessions"`
	LabelsCommitted  int `json:"labelsCommitted"`
	PendingProposals int `json:"pendingProposals"`
}

// StatsResponse is the body of GET /v1/stats: service-wide totals, the
// per-shard breakdown, plus the WAL's segment/sync counters (aggregate and
// per lane) when durability is enabled and the pool store's counters when
// one is attached.
type StatsResponse struct {
	Version          string           `json:"version,omitempty"`
	UptimeSeconds    float64          `json:"uptimeSeconds"`
	Sessions         int              `json:"sessions"`
	LabelsCommitted  int              `json:"labelsCommitted"`
	PendingProposals int              `json:"pendingProposals"`
	Shards           []ShardStats     `json:"shards"`
	WAL              *wal.Stats       `json:"wal,omitempty"`
	Pools            *poolstore.Stats `json:"pools,omitempty"`
	// Trace reports the trace collector's lifetime counters and ring
	// occupancy when tracing is enabled.
	Trace *trace.CollectorStats `json:"trace,omitempty"`
	// Diagnostics summarises the convergence-diagnostics footprint across
	// all live sessions.
	Diagnostics DiagnosticsStats `json:"diagnostics"`
	Runtime     RuntimeStats     `json:"runtime"`
}

// DiagnosticsStats is the convergence-diagnostics block of /v1/stats.
type DiagnosticsStats struct {
	// SeriesMemBytes is the fixed memory held by all sessions' diagnostics
	// rings together.
	SeriesMemBytes int `json:"seriesMemBytes"`
	// DegenerateSessions counts sessions whose degeneracy alarm currently
	// reads degenerate.
	DegenerateSessions int `json:"degenerateSessions"`
}

// RuntimeStats is the Go runtime block of /v1/stats.
type RuntimeStats struct {
	GoVersion           string  `json:"goVersion"`
	Goroutines          int     `json:"goroutines"`
	HeapAllocBytes      uint64  `json:"heapAllocBytes"`
	HeapObjects         uint64  `json:"heapObjects"`
	GCCycles            uint32  `json:"gcCycles"`
	GCPauseTotalSeconds float64 `json:"gcPauseTotalSeconds"`
}

// stats aggregates shard by shard: each shard's sessions are snapshotted
// under that shard's lock alone, so a stats poll never stops the world.
func (s *Server) stats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		Version:       s.version,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Shards:        make([]ShardStats, s.mgr.Shards()),
		Runtime:       readRuntimeStats(),
	}
	for shard := 0; shard < s.mgr.Shards(); shard++ {
		ss := ShardStats{Shard: shard}
		for _, st := range s.mgr.ListShard(shard) {
			ss.Sessions++
			ss.LabelsCommitted += st.LabelsCommitted
			ss.PendingProposals += st.PendingProposals
		}
		resp.Shards[shard] = ss
		resp.Sessions += ss.Sessions
		resp.LabelsCommitted += ss.LabelsCommitted
		resp.PendingProposals += ss.PendingProposals
		for _, sess := range s.mgr.Sessions(shard) {
			resp.Diagnostics.SeriesMemBytes += sess.DiagMemBytes()
			if sess.SamplerHealth().State == diag.StateDegenerate {
				resp.Diagnostics.DegenerateSessions++
			}
		}
	}
	if s.jrn != nil {
		st := s.jrn.Stats()
		resp.WAL = &st
	}
	if s.pools != nil {
		st := s.pools.Stats()
		resp.Pools = &st
	}
	if s.trc != nil {
		ts := s.trc.Stats()
		resp.Trace = &ts
	}
	writeJSON(w, http.StatusOK, resp)
}

// errorBody is the uniform error payload.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// lookup resolves {id} to a session or writes a 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*session.Session, bool) {
	sess, err := s.mgr.GetCtx(r.Context(), r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
		return nil, false
	}
	return sess, true
}

func (s *Server) createSession(w http.ResponseWriter, r *http.Request) {
	var cfg session.Config
	tr := trace.FromContext(r.Context())
	dsp := tr.Start("server", "http.decode")
	ok := s.decodeJSON(w, r, &cfg, "config")
	dsp.End()
	if !ok {
		return
	}
	sess, err := s.mgr.CreateCtx(r.Context(), cfg)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, sess.Status())
}

func (s *Server) listSessions(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Sessions []session.Status `json:"sessions"`
	}{Sessions: s.mgr.List()})
}

func (s *Server) getSession(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	st := sess.Status()
	if wantsBinary(r) {
		bb := getBinBuf()
		bb.buf = AppendEstimateResponse(bb.buf[:0], &st)
		writeBinary(w, bb.buf)
		putBinBuf(bb)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// clientGone reports whether err is the request context's cancellation —
// the client hung up (or its deadline passed) while the handler was
// working. Handlers record it as StatusClientClosedRequest instead of a
// 4xx/5xx so a disconnect storm cannot pollute the error-rate signals
// admission control keys off.
func clientGone(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// ProposeResponse is the body of GET .../propose.
type ProposeResponse struct {
	Proposals []session.Proposal `json:"proposals"`
	// Exhausted reports that the session's label budget is fully committed;
	// polling workers should stop.
	Exhausted bool `json:"exhausted,omitempty"`
}

func (s *Server) propose(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	n := 1
	if q := r.URL.Query().Get("n"); q != "" {
		var err error
		if n, err = strconv.Atoi(q); err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "n must be a positive integer")
			return
		}
		if n > s.maxPropose {
			writeError(w, http.StatusBadRequest, "n=%d exceeds the server's max propose batch of %d", n, s.maxPropose)
			return
		}
	}
	var (
		props []session.Proposal
		err   error
	)
	s.withShardLabel(r.Context(), sess.ID(), func(ctx context.Context) {
		props, err = sess.ProposeCtx(ctx, n)
	})
	exhausted := false
	switch {
	case errors.Is(err, session.ErrBudgetExhausted):
		props, exhausted = nil, true
	case clientGone(err):
		writeError(w, StatusClientClosedRequest, "client disconnected mid-propose: %v", err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if wantsBinary(r) {
		bb := getBinBuf()
		bb.pr.Proposals, bb.pr.Exhausted = props, exhausted
		bb.buf = AppendProposeResponse(bb.buf[:0], &bb.pr)
		writeBinary(w, bb.buf)
		bb.pr.Proposals = nil
		putBinBuf(bb)
		return
	}
	if props == nil {
		props = []session.Proposal{}
	}
	writeJSON(w, http.StatusOK, ProposeResponse{Proposals: props, Exhausted: exhausted})
}

// Label is one crowd answer: the pool pair and its Boolean label.
type Label struct {
	Pair  int  `json:"pair"`
	Label bool `json:"label"`
}

// LabelsRequest is the body of POST .../labels.
type LabelsRequest struct {
	Labels []Label `json:"labels"`
}

// LabelResult reports one answer's fate: "ok" (a fresh label, committed),
// "duplicate" (the pair was already labelled; the re-answer is ignored) or
// "expired" (no live lease; the pair is proposable again).
type LabelResult struct {
	Pair   int    `json:"pair"`
	Status string `json:"status"`
}

// LabelsResponse is the body of the labels endpoint's reply; Committed
// counts only fresh labels ("ok" results).
type LabelsResponse struct {
	Results   []LabelResult `json:"results"`
	Committed int           `json:"committed"`
}

func (s *Server) commitLabels(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	tr := trace.FromContext(r.Context())
	binBody := isBinaryBody(r)
	var bb *binBuf
	var pairs []int
	var labels []bool
	if binBody {
		bb = getBinBuf()
		defer putBinBuf(bb)
		dsp := tr.Start("server", "http.decode")
		if !s.readBinBody(w, r, bb) {
			dsp.End()
			return
		}
		if err := DecodeLabelsRequest(bb.buf, &bb.req); err != nil {
			dsp.End()
			writeError(w, http.StatusBadRequest, "bad labels: %v", err)
			return
		}
		dsp.End()
		bb.pairs, bb.labels = bb.pairs[:0], bb.labels[:0]
		for _, l := range bb.req.Labels {
			bb.pairs = append(bb.pairs, l.Pair)
			bb.labels = append(bb.labels, l.Label)
		}
		pairs, labels = bb.pairs, bb.labels
	} else {
		var req LabelsRequest
		dsp := tr.Start("server", "http.decode")
		ok = s.decodeJSON(w, r, &req, "labels")
		dsp.End()
		if !ok {
			return
		}
		pairs = make([]int, len(req.Labels))
		labels = make([]bool, len(req.Labels))
		for i, l := range req.Labels {
			pairs[i] = l.Pair
			labels[i] = l.Label
		}
	}
	// The commit is acknowledged only after the session's journal append
	// succeeded (CommitBatch returns an error otherwise): a 200 here means
	// the labels are as durable as the configured fsync policy makes them.
	var (
		results []session.CommitResult
		err     error
	)
	s.withShardLabel(r.Context(), sess.ID(), func(ctx context.Context) {
		results, err = sess.CommitBatchCtx(ctx, pairs, labels)
	})
	switch {
	case clientGone(err):
		writeError(w, StatusClientClosedRequest, "client disconnected mid-commit: %v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if wantsBinary(r) {
		if bb == nil {
			bb = getBinBuf()
			defer putBinBuf(bb)
		}
		bb.buf = appendLabelsResults(bb.buf[:0], pairs, results)
		writeBinary(w, bb.buf)
		return
	}
	resp := LabelsResponse{Results: make([]LabelResult, len(results))}
	for i, cr := range results {
		resp.Results[i] = LabelResult{Pair: pairs[i], Status: binStatusNames[cr]}
		if cr == session.Committed {
			resp.Committed++
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) deleteSession(w http.ResponseWriter, r *http.Request) {
	if err := s.mgr.Delete(r.PathValue("id")); err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	s.forgetSessionLimiter(r.PathValue("id"))
	w.WriteHeader(http.StatusNoContent)
}

// PoolUploadRequest is the JSON body of POST /v1/pools: the pool columns,
// exactly as in session.Config's inline form.
type PoolUploadRequest struct {
	Scores []float64 `json:"scores"`
	Preds  []bool    `json:"preds"`
}

// PoolResponse describes one stored pool. Created reports whether the
// upload stored a new pool (false: identical content was already stored —
// the poolId is the same either way).
type PoolResponse struct {
	PoolID  string `json:"poolId"`
	Pairs   int    `json:"pairs"`
	Bytes   int64  `json:"bytes"`
	Refs    int    `json:"refs"`
	Created bool   `json:"created,omitempty"`
}

// PoolsResponse is the body of GET /v1/pools.
type PoolsResponse struct {
	Pools []poolstore.Info `json:"pools"`
}

// poolsEnabled writes the uniform 404 for servers running without a pool
// store.
func (s *Server) poolsEnabled(w http.ResponseWriter) bool {
	if s.pools == nil {
		writeError(w, http.StatusNotFound, "pool store disabled (start the server with -pools-dir)")
		return false
	}
	return true
}

func poolInfoResponse(info poolstore.Info, created bool) PoolResponse {
	return PoolResponse{PoolID: info.ID, Pairs: info.Pairs, Bytes: info.Bytes, Refs: info.Refs, Created: created}
}

// uploadPool stores a pool under its content address: a JSON body carries
// the columns, an application/octet-stream body the canonical binary
// columnar encoding (see internal/poolstore). Uploading the same pool twice
// is an idempotent dedup hit.
func (s *Server) uploadPool(w http.ResponseWriter, r *http.Request) {
	if !s.poolsEnabled(w) {
		return
	}
	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err == nil {
		ct = mt
	}
	var (
		info    poolstore.Info
		created bool
	)
	if ct == "application/octet-stream" || strings.HasPrefix(ct, "application/x-oasis-pool") {
		s.limitBody(w, r)
		data, err := io.ReadAll(r.Body)
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge, "bad pool: body exceeds the %d-byte limit", tooBig.Limit)
				return
			}
			writeError(w, http.StatusBadRequest, "bad pool: %v", err)
			return
		}
		info, created, err = s.pools.PutEncoded(data)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad pool: %v", err)
			return
		}
	} else {
		var req PoolUploadRequest
		if !s.decodeJSON(w, r, &req, "pool") {
			return
		}
		var err error
		info, created, err = s.pools.Put(req.Scores, req.Preds)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad pool: %v", err)
			return
		}
	}
	// The response comes from Put's own registration snapshot — never from a
	// re-read of the store, which a concurrent delete could have emptied.
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	writeJSON(w, code, poolInfoResponse(info, created))
}

func (s *Server) listPools(w http.ResponseWriter, r *http.Request) {
	if !s.poolsEnabled(w) {
		return
	}
	writeJSON(w, http.StatusOK, PoolsResponse{Pools: s.pools.List()})
}

func (s *Server) getPool(w http.ResponseWriter, r *http.Request) {
	if !s.poolsEnabled(w) {
		return
	}
	info, err := s.pools.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, poolInfoResponse(info, false))
}

// deletePool drops an unreferenced pool: 204 on success, 409 while sessions
// still reference it, 404 for unknown IDs.
func (s *Server) deletePool(w http.ResponseWriter, r *http.Request) {
	if !s.poolsEnabled(w) {
		return
	}
	switch err := s.pools.Remove(r.PathValue("id")); {
	case err == nil:
		w.WriteHeader(http.StatusNoContent)
	case errors.Is(err, poolstore.ErrInUse):
		writeError(w, http.StatusConflict, "%v", err)
	default:
		writeError(w, http.StatusNotFound, "%v", err)
	}
}

// ShutdownGrace is how long Serve waits for in-flight requests on shutdown.
const ShutdownGrace = 5 * time.Second

// Serve runs the service on addr until ctx is cancelled, then shuts down
// gracefully (in-flight requests get ShutdownGrace to finish). If ready is
// non-nil it receives the listener's resolved address once the server is
// accepting connections (useful with ":0").
func (s *Server) Serve(ctx context.Context, addr string, ready chan<- string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:     s.Handler(),
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), ShutdownGrace)
		defer cancel()
		return srv.Shutdown(shutdownCtx)
	case err := <-errCh:
		return err
	}
}
