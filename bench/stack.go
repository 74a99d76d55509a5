package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"oasis/internal/obs"
	"oasis/internal/poolstore"
	"oasis/internal/server"
	"oasis/internal/session"
	"oasis/internal/trace"
	"oasis/internal/wal"
)

// stackConfig mirrors the oasis-server flags the traced workloads use.
type stackConfig struct {
	shards       int
	walDir       string // "" = no WAL, memory-only pool store
	memBudget    int64
	compactEvery time.Duration
}

// stack is the traced run's in-process replica of cmd/oasis-server: the same
// public constructors wired the same way, plus the timing journal decorator
// and the span middleware around the HTTP handler.
type stack struct {
	cfg   stackConfig
	tr    *tracer
	pools *poolstore.Store
	mgr   *session.Manager
	jrn   *wal.Journal
	hs    *http.Server
	addr  string

	served   chan error
	tickStop chan struct{}
	tickDone chan struct{}
	// compactErr is the ticker's first failed compaction; read it only
	// after close.
	compactErr error
	closed     bool
}

// quietDiag keeps sampler-health transition messages off the benchmark's
// output.
var quietDiag = session.DiagOptions{Logf: func(string, ...any) {}}

func newStack(tr *tracer, cfg stackConfig) (*stack, error) {
	poolsDir := ""
	if cfg.walDir != "" {
		poolsDir = filepath.Join(cfg.walDir, "pools")
	}
	pools, err := poolstore.Open(poolsDir)
	if err != nil {
		return nil, err
	}
	if cfg.memBudget > 0 {
		pools.SetMemBudget(cfg.memBudget)
	}
	reg := obs.NewRegistry()
	mgr := session.NewManager(session.ManagerOptions{
		Shards: cfg.shards, Pools: pools, Metrics: session.NewMetrics(reg, cfg.shards), Diag: quietDiag,
	})
	s := &stack{cfg: cfg, tr: tr, pools: pools, mgr: mgr}
	srv := server.New(mgr)
	if cfg.walDir != "" {
		j, err := wal.Open(cfg.walDir, mgr, wal.Options{Fsync: "always", Metrics: wal.NewMetrics(reg)})
		if err != nil {
			return nil, err
		}
		s.jrn = j
		// wal.Open attached the journal; re-attach it behind the timer.
		mgr.SetJournal(&timedJournal{j: j, t: tr})
		srv.SetJournal(j)
	}
	srv.SetPools(pools)
	srv.EnableTracing(trace.NewCollector(trace.Options{SampleRate: trace.DefaultSampleRate, Slow: time.Second}))
	srv.SetSlowRequest(time.Second)
	srv.EnableMetrics(reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if s.jrn != nil {
			_ = s.jrn.Close()
		}
		return nil, err
	}
	s.addr = ln.Addr().String()
	s.hs = &http.Server{Handler: tr.middleware(srv.Handler())}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	if s.jrn != nil && cfg.compactEvery > 0 {
		s.tickStop, s.tickDone = make(chan struct{}), make(chan struct{})
		go s.compactLoop()
	}
	return s, nil
}

// compactLoop is the replica's own compaction ticker, as -compact-every runs
// it in the server.
func (s *stack) compactLoop() {
	defer close(s.tickDone)
	t := time.NewTicker(s.cfg.compactEvery)
	defer t.Stop()
	for {
		select {
		case <-s.tickStop:
			return
		case <-t.C:
			var err error
			s.tr.timed("wal", "wal.compact", func() { err = s.jrn.Compact() })
			if err != nil && s.compactErr == nil {
				s.compactErr = err
			}
		}
	}
}

// put stores an encoded pool, timed.
func (s *stack) put(encoded []byte) (string, error) {
	var (
		info poolstore.Info
		err  error
	)
	s.tr.timed("poolstore", "poolstore.put", func() { info, _, err = s.pools.PutEncoded(encoded) })
	return info.ID, err
}

// snapshot is the counters the per-layer metrics take deltas of.
type snapshot struct {
	wal     wal.Stats
	pools   poolstore.Stats
	gcPause uint64
	at      time.Time
}

func (s *stack) snapshot() snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sn := snapshot{pools: s.pools.Stats(), gcPause: ms.PauseTotalNs, at: time.Now()}
	if s.jrn != nil {
		sn.wal = s.jrn.Stats()
	}
	return sn
}

// close stops serving and the compaction ticker, then closes the journal.
// The manager and pool store stay usable.
func (s *stack) close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.hs.Shutdown(context.Background())
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if s.tickStop != nil {
		close(s.tickStop)
		<-s.tickDone
		if s.compactErr != nil && err == nil {
			err = fmt.Errorf("compaction: %w", s.compactErr)
		}
	}
	if s.jrn != nil {
		if cerr := s.jrn.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// replayResult is what reopening a copy of the quiesced log measured.
type replayResult struct {
	seconds float64
	events  uint64
}

// replayCopy opens a copy of the stack's closed WAL directory with a fresh
// manager, as a restart would, checks that every session in want came back
// with the same labels and a bit-identical estimate, compacts the replica
// once, and probes a cold pool acquire on it.
func replayCopy(r *run, tr *tracer, cfg stackConfig, want map[string]session.Status, poolIDs []string) (replayResult, error) {
	var res replayResult
	dir := cfg.walDir + "-replica"
	if err := copyTree(cfg.walDir, dir); err != nil {
		return res, err
	}
	pools, err := poolstore.Open(filepath.Join(dir, "pools"))
	if err != nil {
		return res, err
	}
	mgr := session.NewManager(session.ManagerOptions{Shards: cfg.shards, Pools: pools, Diag: quietDiag})
	var j *wal.Journal
	d := tr.timed("wal", "wal.replay", func() { j, err = wal.Open(dir, mgr, wal.Options{Fsync: "always"}) })
	if err != nil {
		return res, err
	}
	defer j.Close()
	st := j.Stats()
	res = replayResult{seconds: d.Seconds(), events: st.ReplayApplied + st.ReplaySkipped}
	checkSessions(r, mgr, want, "replayed")
	tr.timed("wal", "wal.compact", func() { err = j.Compact() })
	if err != nil {
		return res, err
	}
	return res, coldAcquire(r, tr, mgr, pools, want, poolIDs)
}

// liveStatuses reads the status of every named session.
func liveStatuses(r *run, mgr *session.Manager, ids []string) map[string]session.Status {
	out := make(map[string]session.Status, len(ids))
	for _, id := range ids {
		s, err := mgr.Get(id)
		if err != nil {
			r.fail("session %s missing at the end of the run: %v", id, err)
			continue
		}
		out[id] = s.Status()
	}
	return out
}

// checkSessions compares mgr's sessions with the statuses in want.
func checkSessions(r *run, mgr *session.Manager, want map[string]session.Status, what string) {
	for id, w := range want {
		r.op("check", 1)
		s, err := mgr.Get(id)
		if err != nil {
			r.fail("%s session %s: %v", what, id, err)
			continue
		}
		got := s.Status()
		if got.LabelsCommitted != w.LabelsCommitted || !sameEstimate(got.Estimate, w.Estimate) {
			r.fail("%s session %s: %d labels, estimate %v; want %d, %v", what, id, got.LabelsCommitted, got.Estimate, w.LabelsCommitted, w.Estimate)
		}
	}
}

// coldAcquire deletes the named sessions, evicts every idle pool, and times
// acquiring each pool from cold. A memory-only store never evicts, so there
// the probe times a warm acquire.
func coldAcquire(r *run, tr *tracer, mgr *session.Manager, pools *poolstore.Store, live map[string]session.Status, poolIDs []string) error {
	for id := range live {
		if err := mgr.Delete(id); err != nil {
			return err
		}
	}
	pools.Sweep(0)
	for _, id := range poolIDs {
		var err error
		tr.timed("poolstore", "poolstore.acquire", func() { _, err = pools.Acquire(id) })
		r.op("acquire", 1)
		if err != nil {
			r.fail("acquire pool %s: %v", id, err)
			continue
		}
		pools.Release(id)
	}
	return nil
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
