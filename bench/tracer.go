package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oasis/internal/session"
	"oasis/internal/wal"
)

// Request headers that tie the server's spans to the client request that
// caused them, and name the session a request acts on (so journal appends
// find their parent span).
const (
	hdrTrace   = "X-Bench-Trace"
	hdrSpan    = "X-Bench-Span"
	hdrSession = "X-Bench-Session"
)

// span is one timed call at a layer boundary. Spans of one request or round
// trip share a trace identifier; Parent is the span that caused this one.
type span struct {
	ID, Parent, Trace uint64
	Layer, Name       string
	Start, End        time.Time
}

type accum struct {
	n     int64
	total time.Duration
}

type parentRef struct{ trace, span uint64 }

// tracer records the traced run's spans in memory, keeps per-name totals per
// pass ("phase") and across all passes ("*"), and writes the spans out at
// the end.
type tracer struct {
	origin time.Time
	ids    atomic.Uint64

	mu      sync.Mutex
	phase   string
	spans   []span
	kept    map[string]int // spans kept per phase
	dropped int
	acc     map[string]*accum
	active  map[string]parentRef
}

// maxPhaseSpans bounds the spans each phase keeps for the span file, so the
// busiest pass cannot crowd out the rest; totals keep counting past it.
const maxPhaseSpans = 50_000

func newTracer() *tracer {
	return &tracer{
		origin: time.Now(), phase: "setup",
		kept: map[string]int{}, acc: map[string]*accum{}, active: map[string]parentRef{},
	}
}

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) setPhase(p string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.phase = p
}

func (t *tracer) record(s span) {
	d := s.End.Sub(s.Start)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, key := range [2]string{t.phase + "|" + s.Name, "*|" + s.Name} {
		a := t.acc[key]
		if a == nil {
			a = &accum{}
			t.acc[key] = a
		}
		a.n++
		a.total += d
	}
	if t.kept[t.phase] < maxPhaseSpans {
		t.kept[t.phase]++
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
}

// stat returns the number of name's spans in phase ("*" for every phase) and
// their total duration.
func (t *tracer) stat(phase, name string) (int64, time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.acc[phase+"|"+name]; a != nil {
		return a.n, a.total
	}
	return 0, 0
}

// meanUs is the mean duration of name's spans in phase, in microseconds (0
// when there are none).
func (t *tracer) meanUs(phase, name string) float64 {
	n, total := t.stat(phase, name)
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n) / 1e3
}

func (t *tracer) enter(sess string, ref parentRef) {
	if sess == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.active[sess] = ref
}

func (t *tracer) leave(sess string) {
	if sess == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.active, sess)
}

func (t *tracer) parentOf(sess string) parentRef {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.active[sess]
}

// call times f as one span of layer and name, the parent of every journal
// append for session sess while it runs.
func (t *tracer) call(layer, name, sess string, trace uint64, f func()) {
	s := span{ID: t.newID(), Parent: trace, Trace: trace, Layer: layer, Name: name}
	t.enter(sess, parentRef{trace, s.ID})
	s.Start = time.Now()
	f()
	s.End = time.Now()
	t.leave(sess)
	t.record(s)
}

// timed times f as a root span of its own; a nil tracer only times it.
func (t *tracer) timed(layer, name string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	if t != nil {
		id := t.newID()
		t.record(span{ID: id, Trace: id, Layer: layer, Name: name, Start: start, End: end})
	}
	return end.Sub(start)
}

// routeName names the API route of a request.
func routeName(method, path string) string {
	path, _, _ = strings.Cut(path, "?")
	switch {
	case method == http.MethodPost && path == "/v1/sessions":
		return "create"
	case method == http.MethodDelete && strings.HasPrefix(path, "/v1/sessions/"):
		return "delete"
	case strings.HasSuffix(path, "/propose"):
		return "propose"
	case strings.HasSuffix(path, "/labels"):
		return "labels"
	case strings.HasSuffix(path, "/estimate"):
		return "estimate"
	case path == "/v1/pools":
		return "upload"
	case path == "/v1/stats":
		return "stats"
	case path == "/metrics":
		return "metrics"
	case path == "/healthz":
		return "healthz"
	}
	return "other"
}

// middleware wraps the server's handler: every request becomes a server
// span, the child of the client request span named in its headers.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace, _ := strconv.ParseUint(r.Header.Get(hdrTrace), 10, 64)
		parent, _ := strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64)
		sess := r.Header.Get(hdrSession)
		s := span{ID: t.newID(), Parent: parent, Trace: trace, Layer: "server", Name: "server." + routeName(r.Method, r.URL.Path)}
		t.enter(sess, parentRef{trace, s.ID})
		s.Start = time.Now()
		next.ServeHTTP(w, r)
		s.End = time.Now()
		t.leave(sess)
		t.record(s)
	})
}

// timedJournal decorates the write-ahead log: every append becomes a wal
// span, the child of whatever call is running on the event's session.
type timedJournal struct {
	j *wal.Journal
	t *tracer
}

func (tj *timedJournal) Append(ev *session.Event) (uint64, error) {
	p := tj.t.parentOf(ev.Session)
	s := span{ID: tj.t.newID(), Parent: p.span, Trace: p.trace, Layer: "wal", Name: "wal.append." + string(ev.Type)}
	s.Start = time.Now()
	lsn, err := tj.j.Append(ev)
	s.End = time.Now()
	tj.t.record(s)
	return lsn, err
}

func (tj *timedJournal) Err() error { return tj.j.Err() }

// spanFile is the traced run's span dump: one row per span, times in
// microseconds from the start of the run.
type spanFile struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Columns  []string `json:"columns"`
	Spans    [][]any  `json:"spans"`
	Dropped  int      `json:"dropped"`
}

func (t *tracer) writeSpans(file, workload string, seed uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := spanFile{
		Workload: workload, Seed: seed, Dropped: t.dropped,
		Columns: []string{"id", "parent", "trace", "layer", "name", "start_us", "dur_us"},
		Spans:   make([][]any, 0, len(t.spans)),
	}
	for _, s := range t.spans {
		out.Spans = append(out.Spans, []any{s.ID, s.Parent, s.Trace, s.Layer, s.Name,
			s.Start.Sub(t.origin).Microseconds(), float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3})
	}
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(file, data, 0o644)
}
