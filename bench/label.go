package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"oasis"
	"oasis/internal/poolstore"
	"oasis/internal/session"
)

// labelSlot is one live-session slot of the labelling workloads. When its
// session exhausts its budget the slot deletes it and creates the next
// generation with a fresh seed.
type labelSlot struct {
	prefix string
	idx    int
	gen    int
	acked  int // labels the server acknowledged for the current session
}

func (s *labelSlot) id() string { return fmt.Sprintf("%s%d-%d", s.prefix, s.idx, s.gen) }

func labelConfig(seed uint64, s *labelSlot, poolID string, budget int) session.Config {
	return session.Config{
		ID: s.id(), PoolID: poolID, Calibrated: true, Budget: budget,
		Options: oasis.Options{Seed: mix(seed, 2, uint64(s.idx), uint64(s.gen))},
	}
}

// labelServerArgs is the server command line of the labelling workloads:
// label-durable journals every event with an fsync per commit into one
// lane and never compacts; label-memory keeps everything in memory over two
// shards.
func labelServerArgs(durable bool, dir string) []string {
	if durable {
		return []string{"-wal", filepath.Join(dir, "wal"), "-fsync", "always", "-shards", "1"}
	}
	return []string{"-shards", "2"}
}

// labelLoad is what one connection of a labelling workload measured.
type labelLoad struct {
	roundTrip latencies
	creates   latencies
	labels    int64
	absErr    []float64 // |F̂ − F| of each session that reached its budget
}

// runLabel is the end-to-end run of label-durable (binary protocol, WAL with
// fsync always) and label-memory (JSON, no WAL, periodic reads and scrapes).
func runLabel(r *run, durable bool) error {
	sz := r.sizes
	pool := genPool(sz.labelPool, mix(r.seed, 1))
	trueF := pool.trueF()
	encoded, err := poolstore.Encode(pool.scores, pool.preds)
	if err != nil {
		return err
	}

	var (
		srv    *child
		dir    string
		poolID string
		slots  []*labelSlot
		setups []float64
	)
	for rep := range sz.setupReps {
		if dir, err = r.dir(fmt.Sprintf("setup-%d", rep)); err != nil {
			return err
		}
		t0 := time.Now()
		c, err := startServer(r.serverBin, labelServerArgs(durable, dir)...)
		if err != nil {
			return err
		}
		cl := newClient(c.addr)
		if poolID, err = cl.uploadPool(encoded); err != nil {
			_, _ = c.kill()
			return err
		}
		slots = slots[:0]
		for i := range sz.labelSessions {
			s := &labelSlot{prefix: "l", idx: i}
			if err := cl.create(labelConfig(r.seed, s, poolID, sz.labelBudget)); err != nil {
				_, _ = c.kill()
				return err
			}
			slots = append(slots, s)
		}
		setups = append(setups, time.Since(t0).Seconds())
		cl.close()
		if rep < sz.setupReps-1 {
			if _, err := c.kill(); err != nil {
				return err
			}
			continue
		}
		srv = c
	}
	r.op("setup", int64(sz.setupReps))
	r.metric("setup_s", median(setups))
	r.note("setup_s_all", setups)

	// Closed loop: each connection owns every other slot and cycles through
	// its sessions, one propose + labels round trip at a time.
	loads := make([]*labelLoad, connections)
	deadline := r.deadline()
	start := time.Now()
	parallel(func(c int) {
		loads[c] = &labelLoad{}
		labelConn(r, newClient(srv.addr), durable, poolID, pool.truth, trueF, ownedBy(slots, c), loads[c], deadline)
	})
	elapsed := time.Since(start).Seconds()

	var total labelLoad
	for _, l := range loads {
		total.roundTrip.merge(&l.roundTrip)
		total.creates.merge(&l.creates)
		total.labels += l.labels
		total.absErr = append(total.absErr, l.absErr...)
	}
	rt := total.roundTrip.summary()
	r.metric("labels_per_s", float64(total.labels)/elapsed)
	r.metric("op_p50_ms", rt.P50Ms)
	r.metric("op_tail_ms", rt.TailMs)
	r.note("round_trip", rt)
	r.note("create", total.creates.summary())
	r.note("labels", total.labels)
	r.note("elapsed_s", elapsed)
	r.note("true_f", trueF)
	if len(total.absErr) > 0 {
		r.note("sessions_completed", len(total.absErr))
		r.note("abs_err_f_mean", mean(total.absErr))
	}

	cl := newClient(srv.addr)
	defer cl.close()
	st, err := cl.stats()
	r.op("stats", 1)
	if err != nil {
		r.fail("stats after the run: %v", err)
	} else if st.LabelsCommitted != liveAcked(slots) {
		r.fail("server holds %d labels in live sessions, client acknowledged %d", st.LabelsCommitted, liveAcked(slots))
	}
	var u usage
	if durable {
		if st.WAL != nil && total.labels > 0 {
			r.note("disk_bytes_per_label", float64(st.WAL.BytesAppended)/float64(total.labels))
			r.note("wal", st.WAL)
		}
		u, err = crashCheck(r, srv, cl, dir, slots)
		if err != nil {
			return err
		}
	} else {
		r.note("runtime", st.Runtime)
		if u, err = srv.stop(); err != nil {
			return err
		}
	}
	r.metric("rss_peak_mb", u.MaxRSSMB)
	r.note("server_usage", u)
	if total.labels > 0 {
		r.note("server_cpu_ms_per_klabel", u.CPUSec*1e6/float64(total.labels))
	}
	return nil
}

func liveAcked(slots []*labelSlot) int {
	n := 0
	for _, s := range slots {
		n += s.acked
	}
	return n
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// labelConn is one closed-loop connection of a labelling workload.
func labelConn(r *run, cl *client, binary bool, poolID string, truth []bool, trueF float64, mine []*labelSlot, load *labelLoad, deadline time.Time) {
	defer cl.close()
	sz := r.sizes
	trips := 0
	for time.Now().Before(deadline) {
		for _, s := range mine {
			t0 := time.Now()
			cl.beginTrip()
			props, exhausted, err := cl.propose(s.id(), sz.labelBatch, binary)
			r.op("propose", 1)
			if err != nil {
				r.fail("propose %s: %v", s.id(), err)
				continue
			}
			if exhausted {
				replaceSession(r, cl, binary, s, poolID, trueF, load)
				cl.endTrip("client.replace")
				continue
			}
			if len(props) == 0 {
				r.fail("propose %s: empty batch before the budget was exhausted", s.id())
				continue
			}
			committed, rejected, err := cl.labels(s.id(), props, truth, binary)
			r.op("labels", 1)
			if err != nil {
				r.fail("labels %s: %v", s.id(), err)
				continue
			}
			s.acked += committed
			load.labels += int64(committed)
			if rejected > 0 || committed != len(props) {
				r.fail("labels %s: %d of %d committed, %d duplicate or expired", s.id(), committed, len(props), rejected)
				continue
			}
			load.roundTrip.add(time.Since(t0))
			cl.endTrip("client.round_trip")
			trips++
			if binary {
				continue
			}
			// label-memory also reads estimates and scrapes the ops endpoints,
			// as dashboards and pollers would.
			if trips%sz.estimateEvery == 0 {
				r.op("estimate", 1)
				if _, err := cl.estimate(s.id(), false); err != nil {
					r.fail("estimate %s: %v", s.id(), err)
				}
			}
			if trips%sz.scrapeEvery == 0 {
				r.op("scrape", 2)
				if err := cl.scrape(); err != nil {
					r.fail("metrics scrape: %v", err)
				}
				if _, err := cl.stats(); err != nil {
					r.fail("stats: %v", err)
				}
			}
		}
	}
}

// replaceSession retires a session that reached its budget — checking that
// it holds exactly the acknowledged labels and recording its final error —
// and creates the slot's next generation.
func replaceSession(r *run, cl *client, binary bool, s *labelSlot, poolID string, trueF float64, load *labelLoad) {
	sz := r.sizes
	r.op("estimate", 1)
	st, err := cl.estimate(s.id(), binary)
	switch {
	case err != nil:
		r.fail("estimate %s: %v", s.id(), err)
	case st.LabelsCommitted != s.acked || s.acked != sz.labelBudget:
		r.fail("session %s exhausted with %d labels, acknowledged %d, budget %d", s.id(), st.LabelsCommitted, s.acked, sz.labelBudget)
	case st.Estimate != nil:
		load.absErr = append(load.absErr, math.Abs(*st.Estimate-trueF))
	}
	r.op("delete", 1)
	if err := cl.remove(s.id()); err != nil {
		r.fail("delete %s: %v", s.id(), err)
	}
	s.gen++
	s.acked = 0
	t0 := time.Now()
	r.op("create", 1)
	if err := cl.create(labelConfig(r.seed, s, poolID, sz.labelBudget)); err != nil {
		r.fail("create %s: %v", s.id(), err)
		return
	}
	load.creates.add(time.Since(t0))
}

// crashCheck reads every live session's estimate, SIGKILLs the server,
// restarts it on the same WAL and checks that every session came back with
// exactly the acknowledged labels and a bit-identical estimate. It returns
// the killed server's resource usage.
func crashCheck(r *run, srv *child, cl *client, dir string, slots []*labelSlot) (usage, error) {
	before := make(map[string]session.Status, len(slots))
	for _, s := range slots {
		r.op("estimate", 1)
		st, err := cl.estimate(s.id(), true)
		if err != nil {
			r.fail("estimate %s before the crash: %v", s.id(), err)
			continue
		}
		before[s.id()] = st
	}
	cl.close()
	u, err := srv.kill()
	if err != nil {
		return u, err
	}
	t0 := time.Now()
	c, err := startServer(r.serverBin, labelServerArgs(true, dir)...)
	if err != nil {
		return u, err
	}
	cl2 := newClient(c.addr)
	defer cl2.close()
	if err := cl2.waitHealthy(time.Minute); err != nil {
		_, _ = c.kill()
		return u, err
	}
	r.note("recover_s", time.Since(t0).Seconds())
	for _, s := range slots {
		want, ok := before[s.id()]
		if !ok {
			continue
		}
		r.op("estimate", 1)
		got, err := cl2.estimate(s.id(), true)
		switch {
		case err != nil:
			r.fail("estimate %s after the crash: %v", s.id(), err)
		case got.LabelsCommitted != s.acked:
			r.fail("session %s recovered %d labels, %d were acknowledged", s.id(), got.LabelsCommitted, s.acked)
		case !sameEstimate(got.Estimate, want.Estimate):
			r.fail("session %s estimate changed across the crash", s.id())
		}
	}
	if _, err := c.stop(); err != nil {
		return u, err
	}
	return u, nil
}

// sameEstimate compares two estimates bit for bit (both absent counts as
// equal).
func sameEstimate(a, b *float64) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return math.Float64bits(*a) == math.Float64bits(*b)
}
